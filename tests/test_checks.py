import json
import math
import random
import tracemalloc
from collections import Counter
from itertools import product

import numpy as np
import pytest

from oracles import csum_brute, kronecker_counts, trig_csum
from ramsums import (
    DivisorDownset,
    Element,
    IdentityReport,
    MonoidInstance,
    arith,
    cli,
    common_divisor_sum,
    csums,
    factor_integer,
    jordan_like_local_form,
    jordan_totient,
    mobius_fn,
    norm_fn,
)
from ramsums import checks

BOUND = 30  # 29 is the only element of Z up to the bound that 29 divides
SEED = 5


def _patch_csum(monkeypatch, fn) -> None:
    """Replace csum everywhere the suites evaluate it: the scalar evaluator,
    and the block kernel, which then fills its block pair by pair from
    ``fn`` in int64."""

    def block(inst, ks, ms):
        return np.array([[fn(inst, k, m) for m in ms] for k in ks], np.int64).reshape(len(ks), len(ms))

    for module in (csums, checks):
        monkeypatch.setattr(module, "ramanujan_sum", fn)
        monkeypatch.setattr(module, "csum_block", block)


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


@pytest.mark.parametrize("name", ["z", "q:-23"])
@pytest.mark.parametrize("bound", [0, 1])
def test_check_on_the_empty_and_the_one_element_downset(capsys, name, bound):
    trials = 3
    checked = {"th1": bound, "th2": bound, "holder": 2 * bound, "oracle": bound, "apostol": 2 * trials}
    applies = [s for s in checks.SUITES if name == "z" or s != "oracle"]
    for suite in applies + ["all"]:
        code = cli.main([
            "check", "--instance", name, "--suite", suite, "--bound", str(bound),
            "--trials", str(trials),
        ])
        report = json.loads(capsys.readouterr().out)
        parts = report["suites"] if suite == "all" else [report]
        assert code == 0
        assert [(p["suite"], p["checked"], p["failures"]) for p in parts] == [
            (s, checked[s], []) for s in (applies if suite == "all" else [suite])
        ]


def test_run_suite_refuses_before_it_builds_a_downset(zint, q23, monkeypatch):
    def refuse(self, bound):
        raise AssertionError("enumerated the elements")

    monkeypatch.setattr(MonoidInstance, "enumerate_up_to", refuse)
    with pytest.raises(ValueError, match="unknown suite 'bogus'"):
        checks.run_suite(zint, "bogus")
    with pytest.raises(ValueError, match="rational-integer instance"):
        checks.run_suite(q23, "oracle")


@pytest.mark.parametrize(
    "name,suite", [("z", "th2"), ("z", "oracle"), ("z", "all"), ("q:-23", "all")]
)
def test_check_refuses_an_oversized_csum_block_before_any_work(capsys, monkeypatch, name, suite):
    def refuse(*args):
        raise AssertionError("built a downset")

    monkeypatch.setattr(checks, "DivisorDownset", refuse)
    code = cli.main(["check", "--instance", name, "--suite", suite, "--bound", "100000"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith("error: --bound 100000 gives at least ")
    assert err.count("\n") == 1
    if name == "z":
        assert "100000 elements, 10000000000 pairs to check, above the limit of 536870912" in err


def test_check_counts_a_large_bound_at_2_20_first(monkeypatch):
    from ramsums import quadratic_field

    def refuse(*args):
        raise AssertionError("built a downset")

    def spy(inst):
        real = inst.count_up_to
        monkeypatch.setattr(inst, "count_up_to", lambda x: asked.append(x) or real(x))
        return inst

    monkeypatch.setattr(checks, "DivisorDownset", refuse)
    # counted at the bound, this field's chi and S tables would hold
    # min(|D|, bound + 1) = 99999971 entries each, about 0.9 GB
    asked = []
    with pytest.raises(ValueError, match="^--bound 1000000000 gives at least "):
        checks.run_suite(spy(quadratic_field(-99999971)), "th2", bound=10**9)
    assert asked == [2**20]
    # the exact count runs once the lower bound fits
    asked = []
    monkeypatch.setattr(checks, "MAX_PAIRS", 2**40)
    with pytest.raises(ValueError, match="^--bound 1048577 gives at least 1048577 elements"):
        checks.run_suite(spy(cli.make_instance("z")), "th2", bound=2**20 + 1)
    assert asked == [2**20, 2**20 + 1]


def test_csum_block_limit_at_a_small_bound(zint, monkeypatch):
    monkeypatch.setattr(checks, "MAX_PAIRS", 400 * 400)
    assert checks.run_suite(zint, "th2", bound=400)["failures"] == []
    monkeypatch.setattr(checks, "MAX_PAIRS", 400 * 400 - 1)
    refusal = "^--bound 400 gives at least 400 elements, 160000 pairs to check, above the limit"
    for suite in ("th2", "oracle", "all"):
        with pytest.raises(ValueError, match=refusal):
            checks.run_suite(zint, suite, bound=400)
    # holder and th1 check no n x n pairs
    assert checks.run_suite(zint, "holder", bound=400, seed=SEED)["failures"] == []
    assert checks.run_suite(zint, "th1", bound=400)["failures"] == []


@pytest.mark.parametrize("name,bound", [("z", 60), ("q:-1", 40), ("q:-23", 40)])
@pytest.mark.parametrize("corrupt", [False, True])
def test_th2_failure_list_across_chunk_widths(monkeypatch, name, bound, corrupt):
    """th2's failures against a brute-force N-major listing from the
    definitional csum, and on Z oracle's against a k-major listing from the
    trigonometric sums, at a chunk width of 7 and at the default width;
    corrupted, every row K that one atom P divides exactly is off by one at
    the columns M of odd norm.  th2 takes column chunks, oracle row chunks."""
    inst = cli.make_instance(name)
    elems = list(inst.enumerate_up_to(bound))
    size, power = len(elems), (inst.atoms[0].id, 1)

    def bump(k, m):
        return int(corrupt and power in k.exps and inst.norm(m) % 2)

    real, shapes = checks.csum_block, []

    def block(inst, ks, ms):
        shapes.append((len(ks), len(ms)))
        return real(inst, ks, ms) + np.array([[bump(k, m) for m in ms] for k in ks], np.int64)

    monkeypatch.setattr(checks, "csum_block", block)
    csum = {(d, m): csum_brute(inst, d, m) + bump(d, m) for d in elems for m in elems}
    expected = {"th2": [
        f"m={m.exps} n={n.exps}"
        for n in elems
        for m in elems
        if sum(csum[d, m] for d in inst.divisors(n)) != (inst.norm(n) if n.leq(m) else 0)
    ]}
    if name == "z":
        expected["oracle"] = [
            f"k={k} m={m}"
            for k in range(1, bound + 1)
            for m in range(1, bound + 1)
            if abs(trig_csum(k, m) - csum[elems[k - 1], elems[m - 1]]) >= 1e-6
        ]
    assert all(bool(failures) == corrupt for failures in expected.values())
    downset = DivisorDownset(inst, elems)
    suites = {"th2": checks.suite_th2, "oracle": checks.suite_oracle}
    # the default width covers every element in one chunk; then w =
    # chunk_width(size) = 7, the last chunk shorter
    passes = [
        (csums._CHUNK_ITEMS, csums._MIN_CHUNK_WIDTH, [size]),
        (1, 7, [7] * (size // 7) + [size % 7]),
    ]
    for chunk_items, min_width, widths in passes:
        monkeypatch.setattr(csums, "_CHUNK_ITEMS", chunk_items)
        monkeypatch.setattr(csums, "_MIN_CHUNK_WIDTH", min_width)
        for suite, failures in expected.items():
            shapes.clear()
            assert suites[suite](inst, bound, downset)["failures"] == failures
            th2 = suite == "th2"
            assert shapes == [(size, w) if th2 else (w, size) for w in widths]
    assert size % 7


def test_each_fixed_csum_side_is_read_once(zint, monkeypatch, capsys):
    """At w = 7, z@60 takes 9 chunks and table --x 300 --y 100 takes 15.  The
    fixed side, th2's rows and oracle's columns (the downset's elements, one
    side for both under "all") and table's columns, is read into a CsumSide
    once; each chunk is read once, in the kernel."""
    monkeypatch.setattr(csums, "_CHUNK_ITEMS", 1)
    monkeypatch.setattr(csums, "_MIN_CHUNK_WIDTH", 7)
    real, sizes = csums.CsumSide.__init__, []

    def spy(self, inst, elems):
        real(self, inst, elems)
        sizes.append(len(self))

    monkeypatch.setattr(csums.CsumSide, "__init__", spy)
    chunks = [7] * 8 + [4]
    for suite, want in (("th2", chunks), ("oracle", chunks), ("all", chunks * 2)):
        sizes.clear()
        report = checks.run_suite(zint, suite, bound=60, trials=5)
        assert not report.get("failures") and not report.get("failures_total")
        assert sizes == [60, *want], suite
    sizes.clear()
    assert cli.main(["table", "--instance", "z", "--x", "300", "--y", "100"]) == 0
    assert capsys.readouterr().out.count("\n") == 1 + 100 * 300
    assert sizes == [300, *[7] * 14, 2]


def test_th2_peak_memory_stays_within_four_chunks(zint):
    """th2's n x w column chunks and oracle's w x n row chunks, at z@2000."""
    n = 2000
    downset = DivisorDownset(zint, zint.enumerate_up_to(n))
    width = csums.chunk_width(n)
    for run in (checks.suite_th2, checks.suite_oracle):
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            report = run(zint, n, downset)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report["failures"] == []
        assert peak <= 4 * n * width * 8, (report["suite"], peak / (n * width * 8))


@pytest.mark.parametrize("name", ["z", "q:-23"])
def test_holder_definition_matches_common_divisor_sum(monkeypatch, name):
    inst = cli.make_instance(name)
    downset = DivisorDownset(inst, inst.enumerate_up_to(40))
    elems, norm, mu = downset.elems, norm_fn(inst), mobius_fn()
    for i, k in enumerate(elems):
        defined = downset.definition(i)
        assert [elems[g] for g in defined] == inst.divisors(k)
        for g, value in defined.items():
            assert value == common_divisor_sum(inst, norm, mu, elems[g], k)
    # with common_divisor_sum as the fast side, a failure would be a pair,
    # exhaustive or sampled, where holder's indexed value differs from it
    pairs = []

    def definitional(inst, k, m):
        pairs.append((k, m))
        return common_divisor_sum(inst, norm, mu, m, k)

    monkeypatch.setattr(checks, "ramanujan_sum", definitional)
    report = checks.suite_holder(inst, 40, SEED, downset)
    assert report["failures"] == [] and len(pairs) == report["checked"]
    assert any(m not in inst.divisors(k) for k, m in pairs)


@pytest.mark.parametrize("name", ["z", "q:-1", "q:-23", "q:5"])
def test_holder_local_form_matches_the_library_closed_form(name):
    """holder passes phi(K) to the library's closed form; given or taken
    there, it gives the same value."""
    inst = cli.make_instance(name)
    for k in inst.enumerate_up_to(200):
        phi_k = jordan_totient(inst, k, 1)
        for g in inst.divisors(k):
            assert jordan_like_local_form(inst, k, g, phi_k) == jordan_like_local_form(inst, k, g)


@pytest.mark.parametrize("name,k_bad", [("z", "12"), ("q:-23", "p2a^2*p3b")])
def test_holder_reports_exactly_the_faulty_local_form(monkeypatch, name, k_bad):
    """With the closed form off by one for one K, holder reports the
    local-form check at every G | K, and nothing else."""
    inst = cli.make_instance(name)
    bad = cli.parse_element(inst, k_bad)
    real = checks.jordan_like_local_form

    def faulty(inst, k, m, phi_k=None):
        return real(inst, k, m, phi_k) + (k == bad)

    monkeypatch.setattr(checks, "jordan_like_local_form", faulty)
    report = checks.run_suite(inst, "holder", bound=BOUND, seed=SEED)
    expected = [f"local-form k={bad.exps} m={g.exps}" for g in inst.divisors(bad)]
    assert report["failures"] == expected


@pytest.mark.parametrize("name,k_bad", [("z", "12"), ("q:-23", "p2a^2*p3b")])
def test_holder_reports_exactly_the_faulty_totient(monkeypatch, name, k_bad):
    """With phi(K) doubled for one K, the closed form is wrong at every G | K
    where csum(K, G) is nonzero, and nowhere else."""
    inst = cli.make_instance(name)
    bad = cli.parse_element(inst, k_bad)
    real = checks.jordan_totient

    def faulty(inst, e, s=1):
        value = real(inst, e, s)
        return 2 * value if e == bad else value

    monkeypatch.setattr(checks, "jordan_totient", faulty)
    report = checks.run_suite(inst, "holder", bound=BOUND, seed=SEED)
    expected = [
        f"local-form k={bad.exps} m={g.exps}"
        for g in inst.divisors(bad)
        if csum_brute(inst, bad, g) != 0
    ]
    assert 0 < len(expected) < len(inst.divisors(bad))
    assert report["failures"] == expected


def test_apostol_lists_divisors_at_most_once_per_case(zint, monkeypatch):
    real, calls = MonoidInstance.divisors, []

    def counted(self, e):
        calls.append(e)
        return real(self, e)

    monkeypatch.setattr(MonoidInstance, "divisors", counted)
    report = checks.suite_apostol(zint, 100, SEED)
    assert report["failures"] == [] and len(calls) <= 100


@pytest.mark.parametrize("name", ["z", "q:-23"])
def test_holder_takes_each_totient_once(monkeypatch, name):
    inst = cli.make_instance(name)
    real, calls = arith.jordan_totient, []

    def counted(inst, e, s=1):
        calls.append(e)
        return real(inst, e, s)

    for module in (arith, csums, checks):
        if hasattr(module, "jordan_totient"):
            monkeypatch.setattr(module, "jordan_totient", counted)
    report = checks.run_suite(inst, "holder", bound=60, seed=SEED)
    n = len(list(inst.enumerate_up_to(60)))
    assert report["failures"] == [] and 0 < len(calls) <= n


def test_downset_rejects_a_list_that_is_not_divisor_closed(zint):
    elems = list(zint.enumerate_up_to(30))
    DivisorDownset(zint, elems)
    with pytest.raises(ValueError, match="not divisor-closed"):
        DivisorDownset(zint, [e for e in elems if e != factor_integer(zint, 3)])


def _count_csum_calls(monkeypatch) -> tuple[list, list]:
    """Count the scalar csum calls, and record every (K, M) pair that a
    call of the block kernel covers."""
    real, real_block, calls, pairs = csums.ramanujan_sum, csums.csum_block, [], []

    def counted(inst, k, m):
        calls.append(None)
        return real(inst, k, m)

    def recorded(inst, ks, ms):
        pairs.extend(product(ks, ms))
        return real_block(inst, ks, ms)

    for module in (csums, checks):
        monkeypatch.setattr(module, "ramanujan_sum", counted)
        monkeypatch.setattr(module, "csum_block", recorded)
    return calls, pairs


def _each_pair_once(pairs, elems) -> bool:
    return Counter(pairs) == Counter(product(elems, elems))


@pytest.mark.parametrize("name,bound", [("z", 30), ("q:-23", 20)])
def test_th2_evaluates_each_pair_once(monkeypatch, name, bound):
    inst = cli.make_instance(name)
    elems = list(inst.enumerate_up_to(bound))
    calls, pairs = _count_csum_calls(monkeypatch)
    report = checks.run_suite(inst, "th2", bound=bound)
    assert (report["failures"], len(calls)) == ([], 0)
    assert _each_pair_once(pairs, elems)


@pytest.mark.parametrize("name,disc,bound", [("z", 1, 30), ("q:-23", -23, 20)])
def test_suite_all_evaluates_the_block_once(monkeypatch, name, disc, bound):
    # th2 and oracle each cover the n x n pairs once with the kernel; th1 and
    # holder's exhaustive layer each evaluate sum of tau(K) scalar pairs, and
    # holder samples min(2000, n**2)
    if name == "z":
        n, taus = bound, _divisor_pairs_z(bound)
    else:
        n, taus = _divisor_pairs_field(disc, bound)
    inst = cli.make_instance(name)
    elems = list(inst.enumerate_up_to(bound))
    calls, pairs = _count_csum_calls(monkeypatch)
    report = checks.run_suite(inst, "all", bound=bound, seed=3)
    suites = 2 if inst.parses_integers else 1  # th2, and oracle on Z
    assert report["failures_total"] == 0
    assert Counter(pairs) == Counter(list(product(elems, elems)) * suites)
    assert len(calls) == 2 * taus + min(2000, n * n) == {"z": 1122, "q:-23": 1812}[name]
    # holder alone reads the downset's divisor positions, never the kernel
    downset = DivisorDownset(inst, elems)
    assert checks.suite_holder(inst, bound, 3, downset)["failures"] == []
    assert len(pairs) == suites * n * n


def test_oracle_alone_evaluates_every_pair_once(zint, monkeypatch):
    calls, pairs = _count_csum_calls(monkeypatch)
    assert checks.run_suite(zint, "oracle", bound=BOUND)["failures"] == []
    assert len(calls) == 0
    assert _each_pair_once(pairs, list(zint.enumerate_up_to(BOUND)))


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
    report = checks.run_suite(inst, "th2", bound=bound)
    assert report == _th2_reference(inst, bound)
    assert len(report["failures"]) >= faults
    if name == "z":
        report = checks.run_suite(inst, "oracle", bound=bound)
        assert report == _oracle_reference(inst, bound)
        assert len(report["failures"]) == faults


@pytest.mark.parametrize("value", [2**15, 2**40])
def test_out_of_range_csum_is_a_th2_failure(zint, monkeypatch, capsys, value):
    # |csum(K, M)| <= N(K) <= 30; th2 keeps every value in int64, so a
    # larger one is reported at each multiple of K, not wrapped
    real = csums.ramanujan_sum
    k_bad, m_bad = factor_integer(zint, 12), factor_integer(zint, 18)
    _patch_csum(
        monkeypatch,
        lambda inst, k, m: value if (k, m) == (k_bad, m_bad) else real(inst, k, m),
    )
    code = cli.main(["check", "--instance", "z", "--suite", "th2", "--bound", str(BOUND)])
    out = capsys.readouterr()
    report = json.loads(out.out)
    assert (code, out.err) == (1, "")
    assert report == _th2_reference(zint, BOUND)
    multiples = [factor_integer(zint, n) for n in (12, 24)]
    assert report["failures"] == [f"m={m_bad.exps} n={n.exps}" for n in multiples]


def test_th2_row_sums_do_not_wrap(zint, monkeypatch):
    # each offset fits int16, but row 4 adds all three, 2**16 in total: an
    # int16 sum would wrap back to the right side and hide it
    real = csums.ramanujan_sum
    four = factor_integer(zint, 4)
    offsets = {factor_integer(zint, d): off for d, off in ((1, 21846), (2, 21845), (4, 21845))}
    _patch_csum(
        monkeypatch,
        lambda inst, k, m: real(inst, k, m) + (offsets.get(k, 0) if m == four else 0),
    )
    report = checks.run_suite(zint, "th2", bound=BOUND)
    assert report == _th2_reference(zint, BOUND)
    assert f"m={four.exps} n={four.exps}" in report["failures"]


def test_oracle_rejects_a_block_out_of_integer_order(zint):
    elems = list(zint.enumerate_up_to(BOUND))
    elems[3], elems[4] = elems[4], elems[3]
    downset = DivisorDownset(zint, elems)
    with pytest.raises(RuntimeError, match="not the integers"):
        checks.suite_oracle(zint, BOUND, downset)


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


def test_sxy_cross_check_catches_a_fault_in_the_csum_block(zint, monkeypatch, capsys):
    # the direct side reads csum only through the block kernel: one entry
    # off by one, csum(2, 2), must fail the cross-check
    real, two = csums.csum_block, factor_integer(zint, 2)

    def faulty(inst, ks, ms):
        block = real(inst, ks, ms)
        for i, k in enumerate(ks):
            for j, m in enumerate(ms):
                block[i, j] += (k, m) == (two, two)
        return block

    monkeypatch.setattr(csums, "csum_block", faulty)
    with pytest.raises(ArithmeticError, match="cross-check failed"):
        csums.double_sums(zint, [(100, 5)])
    code = cli.main(["sxy", "--instance", "z", "--x", "100", "--y", "5"])
    out = capsys.readouterr()
    assert (code, out.out) == (3, "")
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
    scans = []
    scan = csums._HeadScan.__iter__

    def counted(self):
        scans.append([self.inst, self.bound, 0])
        for chunk in scan(self):
            scans[-1][2] += len(chunk[0])
            yield chunk

    monkeypatch.setattr(csums._HeadScan, "__iter__", counted)
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
    report = checks.run_suite(zint, "th2", bound=BOUND)
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
    _patch_csum(monkeypatch, lambda inst, k, m: 0)
    report = checks.run_suite(zint, "oracle", bound=24)
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
