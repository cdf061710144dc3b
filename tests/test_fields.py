import math

import pytest

from oracles import euler_criterion, kronecker_counts
from ramsums import (
    FieldInvariants,
    InconclusiveEstimateError,
    class_number_from_counting,
    class_number_imaginary,
    factor_integer,
    fundamental_unit,
    kronecker,
    quadratic_field,
    rational_integers,
    regulator_real,
    residue_constant,
    split_prime,
)
from ramsums.fields import sieve_primes


def test_sieve():
    assert sieve_primes(1) == []
    assert sieve_primes(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_rational_integers_basics(zint):
    zint.extend(6)
    assert [(a.norm, a.label) for a in zint.atoms[:3]] == [(2, "p2"), (3, "p3"), (5, "p5")]
    assert zint.count_up_to(10**4) == 10**4
    assert zint.density.c == 1.0 and zint.density.alpha == 0.0


def test_factor_integer(zint):
    e = factor_integer(zint, 360)
    assert zint.norm(e) == 360
    assert [zint.atom(a).norm for a, _ in e.exps] == [2, 3, 5]
    assert [x for _, x in e.exps] == [3, 2, 1]
    assert factor_integer(zint, 1).is_zero
    assert zint.norm(factor_integer(zint, 10**6 + 3)) == 10**6 + 3  # prime remainder
    with pytest.raises(ValueError):
        factor_integer(zint, 0)


def test_factor_integer_needs_z(qi):
    with pytest.raises(ValueError):
        factor_integer(qi, 6)


def test_factor_integer_rejects_runaway_sieve(zint):
    # a huge prime factor would require materializing the table up to it
    with pytest.raises(ValueError):
        factor_integer(zint, (10**9 + 7) ** 2)
    # the small primes are tried first, and the limit stops the extension
    fresh = rational_integers()
    with pytest.raises(ValueError, match="exceeds the limit"):
        factor_integer(fresh, (10**9 + 7) ** 2)
    assert fresh.atoms[-1].norm <= 2**16 + 1


def test_factor_integer_smooth_beyond_the_table_limit():
    # sqrt(2**80) is far past the atom-table limit, but 2**80 factors over {2}
    fresh = rational_integers()
    e = factor_integer(fresh, 2**80)
    assert [(fresh.atom(a).norm, x) for a, x in e.exps] == [(2, 80)]
    assert fresh.atoms[-1].norm <= 2**16
    n = 2**40 * 3**20 * 65521
    assert fresh.norm(factor_integer(fresh, n)) == n


def test_factor_integer_against_sympy(zint):
    sympy = pytest.importorskip("sympy")
    smooth = [2**80, 3**40 * 5**7, 2**40 * 3**20 * 65521, 7**30, 2**10 * 3**10 * 5**10 * 7**10]
    for n in [*range(1, 5001), *smooth]:
        e = factor_integer(zint, n)
        assert {zint.atom(a).norm: x for a, x in e.exps} == sympy.factorint(n), n


def test_kronecker_examples():
    assert kronecker(-4, 5) == 1
    assert kronecker(-4, 2) == 0
    assert kronecker(8, 3) == -1
    assert kronecker(1, 0) == 1 and kronecker(-1, 0) == 1 and kronecker(5, 0) == 0
    assert kronecker(3, 1) == 1


def test_kronecker_euler_criterion():
    for p in sieve_primes(1000):
        if p == 2:
            continue
        for a in range(1, min(p, 60)):
            assert kronecker(a, p) == euler_criterion(a, p)


def test_kronecker_two_and_sign():
    # (a|2) follows the mod-8 rule
    for a, want in ((1, 1), (3, -1), (5, -1), (7, 1), (9, 1), (15, 1), (4, 0)):
        assert kronecker(a, 2) == want
    # multiplicativity in the denominator on a sample
    for a in (-7, -3, 2, 5, 12):
        for m in (3, 5, 9, 15):
            for n in (5, 7, 21):
                assert kronecker(a, m * n) == kronecker(a, m) * kronecker(a, n)


def test_split_prime_examples():
    rec = split_prime(-4, 5)
    assert rec.kind == "split" and [n for n, _ in rec.atoms] == [5, 5]
    assert [l for _, l in rec.atoms] == ["p5a", "p5b"]
    rec = split_prime(-4, 3)
    assert rec.kind == "inert" and rec.atoms == ((9, "p3"),)
    rec = split_prime(-4, 2)
    assert rec.kind == "ramified" and rec.atoms == ((2, "p2r"),)


def test_quadratic_field_validation():
    for bad in (0, 1, 4, 12, -4, 18):
        with pytest.raises(ValueError):
            quadratic_field(bad)


def test_quadratic_field_discriminants(qi, q23, q2):
    assert qi.descriptor.discriminant == -4
    assert q23.descriptor.discriminant == -23
    assert q2.descriptor.discriminant == 8
    assert quadratic_field(3).descriptor.discriminant == 12
    assert qi.descriptor.signature == (0, 2)
    assert q2.descriptor.signature == (2, 0)


@pytest.mark.parametrize("which", ["qi", "q23", "q2"])
def test_splitting_degree_sum(which, request):
    # sum of e*f over the ideals above p is the field degree 2
    inst = request.getfixturevalue(which)
    disc = inst.descriptor.discriminant
    for p in sieve_primes(200):
        rec = split_prime(disc, p)
        total = 0
        for norm, _ in rec.atoms:
            assert norm in (p, p * p)
            f = 2 if norm == p * p else 1
            e = 2 if rec.kind == "ramified" else 1
            total += e * f
        assert total == 2
        assert (rec.kind == "ramified") == (disc % p == 0)


def test_quadratic_counts_against_character_oracle(q23, q2):
    # cover all splitting behaviors of 2: ramified (disc 8, -4), split
    # (disc -23, -7), inert (disc 5, 13)
    instances = [q23, q2] + [quadratic_field(d) for d in (5, -7, 13)]
    for inst in instances:
        limit = 2000
        oracle = kronecker_counts(inst.descriptor.discriminant, limit)
        counts = inst.norm_counts(limit)
        assert counts[1 : limit + 1].tolist() == oracle[1:]


def test_class_number_imaginary():
    known = {-3: 1, -4: 1, -7: 1, -8: 1, -11: 1, -15: 2, -20: 2, -23: 3}
    for disc, h in known.items():
        assert class_number_imaginary(disc) == h
    with pytest.raises(ValueError):
        class_number_imaginary(5)
    with pytest.raises(ValueError):
        class_number_imaginary(-5)  # 3 mod 4 is not a discriminant


def test_regulator_examples():
    assert math.isclose(regulator_real(8), math.log(1 + math.sqrt(2)), rel_tol=1e-12)
    assert math.isclose(regulator_real(12), math.log(2 + math.sqrt(3)), rel_tol=1e-12)
    assert math.isclose(
        regulator_real(5), math.log((1 + math.sqrt(5)) / 2), rel_tol=1e-12
    )


def test_fundamental_unit_norm_equation():
    for d in (2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23, 29, 33, 61, 94, 661):
        u, v, denom, eta = fundamental_unit(d)
        assert eta in (1, -1) and denom in (1, 2)
        assert u * u - d * v * v == eta * denom * denom
        if denom == 2:
            assert u % 2 == 1 and v % 2 == 1 and d % 4 == 1


def test_fundamental_unit_half_integral_cases():
    # fields whose fundamental unit has denominator 2
    for d, (u, v) in {5: (1, 1), 13: (3, 1), 21: (5, 1), 61: (39, 5)}.items():
        assert fundamental_unit(d) == (u, v, 2, (u * u - d * v * v) // 4)
    # and one with d = 1 mod 4 whose unit is integral
    u, v, denom, _ = fundamental_unit(33)
    assert (u, v, denom) == (23, 4, 1)


def test_residue_constant_examples(qi, q23, q2):
    assert math.isclose(residue_constant(qi.invariants), math.pi / 4, rel_tol=1e-12)
    want = 3 * math.pi / math.sqrt(23)
    assert math.isclose(residue_constant(q23.invariants), want, rel_tol=1e-12)
    inv = FieldInvariants(2, 0, regulator_real(8), 1, 2, 8)
    assert math.isclose(residue_constant(inv), 0.623225, abs_tol=5e-7)
    with pytest.raises(ValueError):
        residue_constant(q2.invariants)  # class number not populated


def test_class_number_from_counting(qi, q23):
    est, h = class_number_from_counting(qi, 10**5)
    assert h == 1 and abs(est - 1.0) < 0.05
    with pytest.raises(InconclusiveEstimateError):
        class_number_from_counting(q23, 3)  # tiny sample lands between integers
    z = rational_integers()
    with pytest.raises(ValueError):
        class_number_from_counting(z, 100)


def test_density_metadata(qi, q23, q2):
    assert math.isclose(qi.density.c, math.pi / 4, rel_tol=1e-12)
    assert qi.density.alpha == 0.5
    assert q2.density.c is None and q2.density.alpha == 0.5
    assert math.isclose(q23.density.c, 3 * math.pi / math.sqrt(23), rel_tol=1e-12)
