import json
import math
import random

import pytest

from oracles import csum_brute, kronecker_counts
from ramsums import Element, IdentityReport, cli, csums, divisibility_sums, factor_integer
from ramsums import checks

BOUND = 30  # 29 is the only element of Z up to the bound that 29 divides
SEED = 5


def _sabotage_csum(monkeypatch, k_bad: Element, m_bad: Element) -> None:
    """Make csum(k_bad, m_bad) off by one everywhere the suites evaluate it."""
    real = csums.ramanujan_sum

    def faulty(inst, k, m):
        value = real(inst, k, m)
        return value + 1 if (k.exps, m.exps) == (k_bad.exps, m_bad.exps) else value

    monkeypatch.setattr(csums, "ramanujan_sum", faulty)
    monkeypatch.setattr(checks, "ramanujan_sum", faulty)


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
        for n in elems[::3]:
            nn = inst.norm(n)
            brute = [
                (sum(csum_brute(inst, d, m) for d in inst.divisors(n)), nn if n.leq(m) else 0)
                for m in elems
            ]
            assert divisibility_sums(inst, elems, n) == brute
            assert all(lhs == rhs for lhs, rhs in brute)


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
