"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
verdicts; every tolerance is pinned here and nothing is deferred to later
calibration.
"""

import math
import random
import time

import pytest

from oracles import trig_csum
from ramsums import (
    INT,
    ZERO,
    ArithFn,
    DivisorDownset,
    Element,
    class_number_from_counting,
    class_number_imaginary,
    convolve,
    delta,
    dirichlet_inverse,
    divisor_sum_identity,
    double_sum,
    factor_integer,
    first_argument_convolution,
    fixed_k_partial,
    mobius_fn,
    mobius_pair_profile,
    one,
    quadratic_field,
    ramanujan_sum,
    regulator_real,
    residue_series,
    residue_constant,
    FieldInvariants,
    second_argument_convolution,
)
from ramsums import checks, cli


def _verdict(num, name, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {name}{tail}")
    assert ok, f"criterion {num} failed: {name}{tail}"


def z_el(zint, n):
    return factor_integer(zint, n)


def test_criterion_01_trig_oracle(zint):
    t0 = time.monotonic()
    worst = 0.0
    mismatches = 0
    m_elts = [z_el(zint, m) for m in range(1, 201)]
    for k in range(1, 201):
        ke = z_el(zint, k)
        for m in range(1, 201):
            z = trig_csum(k, m)
            c = ramanujan_sum(zint, ke, m_elts[m - 1])
            dev = abs(z - c)
            worst = max(worst, dev)
            if dev >= 1e-6 or round(z.real) != c:
                mismatches += 1
    elapsed = time.monotonic() - t0
    _verdict(
        1,
        "divisor sum equals the trigonometric sum for k, m <= 200",
        mismatches == 0 and worst < 1e-6 and elapsed < 10.0,
        f"worst deviation {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_divisor_sum_identity(zint, qi, q23, q2):
    t0 = time.monotonic()
    failures = 0
    checked = 0
    for inst, bound in ((zint, 2000), (qi, 500), (q23, 500), (q2, 500)):
        for k in inst.enumerate_up_to(bound):
            checked += 1
            if not divisor_sum_identity(inst, k).passed:
                failures += 1
    elapsed = time.monotonic() - t0
    _verdict(
        2,
        "divisor-sum identity, exact, Z to 2000 and quadratic fields to 500",
        failures == 0 and elapsed < 30.0,
        f"{checked} elements, {elapsed:.1f}s",
    )


def test_criterion_03_divisibility_identity(zint, qi, q23, q2):
    failures = 0
    checked = 0
    for inst in (zint, qi, q23, q2):
        downset = DivisorDownset(inst, inst.enumerate_up_to(300))
        report = checks.suite_th2(inst, 300, downset)
        assert report["checked"] == len(downset.elems) ** 2
        checked += report["checked"]
        failures += len(report["failures"])
    _verdict(
        3,
        "divisibility identity, exact, all pairs with norms <= 300",
        failures == 0,
        f"{checked} pairs",
    )


def test_criterion_04_residue_series(zint, qi):
    x = 10**6
    t0 = time.monotonic()
    worst_z = 0.0
    for k in (2, 3, 4, 8, 9):
        ke = z_el(zint, k)
        lam = math.log(2) if k in (2, 4, 8) else math.log(3)
        err = abs(residue_series(zint, ke, x) - (-1.0 * lam))
        worst_z = max(worst_z, err)
    t_z = time.monotonic() - t0
    t0 = time.monotonic()
    c = math.pi / 4
    p2r = qi.atom_by_label("p2r").id
    worst_qi = 0.0
    for exp in (1, 2):
        ke = Element(((p2r, exp),))
        err = abs(residue_series(qi, ke, x) - (-c * math.log(2)))
        worst_qi = max(worst_qi, err)
    t_qi = time.monotonic() - t0
    _verdict(
        4,
        "grouped residue series at x = 1e6 hits -c*Lambda(K)",
        worst_z <= 1e-3 and worst_qi <= 5e-3 and t_z < 60.0 and t_qi < 60.0,
        f"Z worst {worst_z:.2e} in {t_z:.1f}s, Q(i) worst {worst_qi:.2e} in {t_qi:.1f}s",
    )


def test_criterion_05_convolution_identities(zint):
    rng = random.Random(20250810)
    zint.extend(20)
    pool = [a.id for a in zint.atoms[:8]]
    failures = 0
    for _ in range(1000):
        ids = sorted(rng.sample(pool, rng.randint(1, 4)))
        root = Element(tuple((i, rng.randint(1, 3)) for i in ids))
        divs = zint.divisors(root)
        tf, tg, th = ({e: rng.randint(-9, 9) for e in divs} for _ in range(3))
        f, g, h = (ArithFn(t.__getitem__, INT) for t in (tf, tg, th))
        k = Element(tuple((a, d) for a, e in root.exps if (d := rng.randint(0, e))))
        n = Element(tuple((a, d) for a, e in root.exps if (d := rng.randint(0, e))))
        if not first_argument_convolution(zint, f, g, h, k, n).passed:
            failures += 1
        if not second_argument_convolution(zint, f, g, h, k, n).passed:
            failures += 1
    _verdict(
        5,
        "both bilinear convolution identities, 1000 seeded tuples, exact",
        failures == 0,
    )


def test_criterion_06_inner_identity(zint, qi, q23, q2):
    bad = []
    for inst in (zint, qi, q23, q2):
        profile = mobius_pair_profile(inst, 500)
        bad += [(inst.name, y) for y in range(1, 501) if profile[y] != 1]
    _verdict(
        6,
        "signed squarefree pair sum equals 1 for y = 1..500, all instances",
        not bad,
        f"first failures: {bad[:3]}" if bad else "4 instances x 500 bounds",
    )


def test_criterion_07_fixed_k_boundedness(zint):
    ok = True
    details = []
    for x in (10**3, 10**4, 10**5, 10**6):
        if fixed_k_partial(zint, ZERO, x) != x:
            ok = False
            details.append(f"K=0 at {x}")
    for k in (2, 6, 12):
        ke = z_el(zint, k)
        sigma = sum(zint.norm(d) for d in zint.divisors(ke))
        for x in (10**3, 10**4, 10**5, 10**6):
            v = fixed_k_partial(zint, ke, x)
            if abs(v) > sigma:
                ok = False
                details.append(f"K={k} x={x}: |{v}| > {sigma}")
    _verdict(
        7,
        "partial sums stay below the divisor-norm bound; K = 0 counts exactly",
        ok,
        "; ".join(details) if details else "K in {0,2,6,12}, x up to 1e6",
    )


def test_criterion_08_double_sum_grid(zint):
    worst_ratio = 0.0
    direct_checked = 0
    for x in (10**4, 10**5, 10**6):
        for y in (2, 5, 10, 20, 50):
            rep = double_sum(zint, x, y)
            worst_ratio = max(worst_ratio, abs(rep.value - x) / (y * y))
            if x * y <= 10**6:
                assert rep.direct is not None
                assert rep.direct == rep.value
                direct_checked += 1
    _verdict(
        8,
        "|S(x,y) - x| <= C*y^2 on the grid with one constant C <= 3",
        worst_ratio <= 3.0 and direct_checked >= 8,
        f"fitted C = {worst_ratio:.3f}, {direct_checked} direct cross-checks",
    )


def test_criterion_09_density_targets(qi, q23, q2):
    x = 10**6
    results = []
    targets = (
        (qi, math.pi / 4, 0.01 / (math.pi / 4)),  # absolute 0.01 on the ratio
        (q23, 3 * math.pi / math.sqrt(23), 0.02),
        (q2, residue_constant(FieldInvariants(2, 0, regulator_real(8), 1, 2, 8)), 0.02),
    )
    ok = True
    for inst, target, rel in targets:
        t0 = time.monotonic()
        ratio = inst.count_up_to(x) / x
        elapsed = time.monotonic() - t0
        rel_err = abs(ratio - target) / target
        if rel_err > rel or elapsed >= 60.0:
            ok = False
        results.append(f"{inst.name}: {ratio:.6f} vs {target:.6f} in {elapsed:.1f}s")
    # the first target is stated absolutely in the criterion
    abs_err_qi = abs(qi.count_up_to(x) / x - math.pi / 4)
    _verdict(
        9,
        "ideal counts at 1e6 match the residue constants",
        ok and abs_err_qi <= 0.01,
        "; ".join(results),
    )


def test_criterion_10_class_number_round_trip():
    x = 10**6
    ok = True
    details = []
    for d in (-3, -1, -7, -2, -11, -15, -5, -23):
        inst = quadratic_field(d)
        exact = class_number_imaginary(inst.descriptor.discriminant)
        _, rounded = class_number_from_counting(inst, x)
        if rounded != exact:
            ok = False
            details.append(f"d={d}: {rounded} != {exact}")
    for d in (2, 3):
        inst = quadratic_field(d)
        _, rounded = class_number_from_counting(inst, x)
        if rounded != 1:
            ok = False
            details.append(f"d={d}: {rounded} != 1")
    _verdict(
        10,
        "counting-based class numbers round to the reduced-forms values",
        ok,
        "; ".join(details) if details else "8 imaginary + 2 real fields",
    )


def test_criterion_11_algebra_suite(zint):
    rng = random.Random(11)
    zint.extend(20)
    pool = [a.id for a in zint.atoms[:8]]
    mu, unit, d_fn = mobius_fn(), one(), delta()

    def rand_root():
        ids = sorted(rng.sample(pool, rng.randint(1, 4)))
        return Element(tuple((i, rng.randint(1, 3)) for i in ids))

    failures = 0
    # commutativity and associativity
    for _ in range(500):
        root = rand_root()
        divs = zint.divisors(root)
        tf, tg, th = ({e: rng.randint(-9, 9) for e in divs} for _ in range(3))
        f, g, h = (ArithFn(t.__getitem__, INT) for t in (tf, tg, th))
        if convolve(zint, f, g, root) != convolve(zint, g, f, root):
            failures += 1
        fg = {e: convolve(zint, f, g, e) for e in divs}
        gh = {e: convolve(zint, g, h, e) for e in divs}
        if convolve(zint, ArithFn(fg.__getitem__, INT), h, root) != convolve(
            zint, f, ArithFn(gh.__getitem__, INT), root
        ):
            failures += 1
    # mu * 1 = delta
    for _ in range(500):
        e = rand_root()
        if convolve(zint, mu, unit, e) != d_fn(e):
            failures += 1
    # inversion round trip: f = g * 1 recovers g through mu
    for _ in range(500):
        root = rand_root()
        divs = zint.divisors(root)
        tg = {e: rng.randint(-9, 9) for e in divs}
        g = ArithFn(tg.__getitem__, INT)
        tf = {e: convolve(zint, g, unit, e) for e in divs}
        f = ArithFn(tf.__getitem__, INT)
        if any(convolve(zint, f, mu, e) != tg[e] for e in divs):
            failures += 1
    # Dirichlet inverses multiply back to delta
    for _ in range(500):
        root = rand_root()
        divs = zint.divisors(root)
        tf = {e: rng.choice([1, -1]) if e.is_zero else rng.randint(-9, 9) for e in divs}
        f = ArithFn(tf.__getitem__, INT)
        g = dirichlet_inverse(zint, f, root).as_fn()
        if any(convolve(zint, f, g, e) != d_fn(e) for e in divs):
            failures += 1
    _verdict(
        11,
        "convolution algebra: 500 exact seeded trials per property",
        failures == 0,
    )


def test_criterion_12_determinism_across_workers(capsys):
    outputs = []
    for workers in ("1", "8"):
        code = cli.main(
            ["check", "--suite", "all", "--seed", "42", "--workers", workers]
        )
        captured = capsys.readouterr().out
        assert code == 0, "check suite reported failures"
        outputs.append(captured)
    _verdict(
        12,
        "check --suite all --seed 42 is byte-identical with 1 and 8 workers",
        outputs[0] == outputs[1] and len(outputs[0]) > 0,
        f"{len(outputs[0])} bytes",
    )
