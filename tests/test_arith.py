import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ramsums import (
    FLOAT,
    INT,
    RATIONAL,
    ZERO,
    ArithFn,
    Element,
    abel_sum,
    arith,
    convolve,
    delta,
    dirichlet_inverse,
    factor_integer,
    jordan_totient,
    mobius,
    mobius_fn,
    norm_fn,
    one,
    von_mangoldt,
    von_mangoldt_by_divisors,
)


def z_el(zint, n):
    return factor_integer(zint, n)


def test_mobius_examples(zint):
    assert mobius(ZERO) == 1
    assert mobius(z_el(zint, 30)) == -1
    assert mobius(z_el(zint, 4)) == 0
    assert mobius(z_el(zint, 6)) == 1


def test_mobius_against_sympy(zint):
    sympy = pytest.importorskip("sympy")
    for n in range(1, 5001):
        assert mobius(z_el(zint, n)) == sympy.mobius(n), n


@given(st.data())
def test_mobius_multiplicative_on_disjoint_supports(data):
    ids = data.draw(st.lists(st.integers(0, 7), unique=True, min_size=2, max_size=6))
    split = data.draw(st.integers(1, len(ids) - 1))
    mk = lambda part: Element(
        tuple(sorted((i, data.draw(st.integers(1, 3))) for i in part))
    )
    a, b = mk(ids[:split]), mk(ids[split:])
    assert a.gcd(b) == ZERO
    assert mobius(a.add(b)) == mobius(a) * mobius(b)


def test_von_mangoldt_examples(zint):
    assert von_mangoldt(zint, ZERO) == 0.0
    assert math.isclose(von_mangoldt(zint, z_el(zint, 8)), math.log(2), abs_tol=1e-15)
    assert von_mangoldt(zint, z_el(zint, 6)) == 0.0
    assert math.isclose(
        von_mangoldt_by_divisors(zint, z_el(zint, 8)), math.log(2), abs_tol=1e-12
    )


@pytest.mark.parametrize("which", ["zint", "qi", "q23", "q5"])
def test_mobius_terms_match_a_walk_over_the_divisors(which, request):
    """The (mu(K - D), norm(D)) list of the Möbius regroupings, against
    complements taken with Element.sub, on every K of norm <= 500: these
    include non-squarefree K and, in the quadratic fields, K holding both
    atoms of a split pair (two distinct atoms of one norm)."""
    inst = request.getfixturevalue(which)
    ks = list(inst.enumerate_up_to(500))
    assert any(e > 1 for k in ks for _, e in k.exps)
    if which != "zint":
        assert any(len({inst.norms[a] for a, _ in k.exps}) < len(k.exps) for k in ks)
    for k in ks:
        brute = [(mobius(k.sub(d)), inst.norm(d)) for d in inst.divisors(k)]
        assert arith._mobius_terms(inst, k) == [(mu, n) for mu, n in brute if mu]


@pytest.mark.parametrize("which", ["zint", "qi"])
def test_von_mangoldt_evaluators_agree(which, request):
    inst = request.getfixturevalue(which)
    for e in inst.enumerate_up_to(10**4):
        assert abs(von_mangoldt(inst, e) - von_mangoldt_by_divisors(inst, e)) <= 1e-12


def test_convolve_examples(zint):
    unit, mu = one(), mobius_fn()
    for n in (1, 2, 12, 30, 360):
        e = z_el(zint, n)
        assert convolve(zint, mu, unit, e) == (1 if e.is_zero else 0)
    assert convolve(zint, unit, unit, z_el(zint, 12)) == 6
    assert convolve(zint, norm_fn(zint), mu, z_el(zint, 6)) == 2


def test_convolve_ring_mismatch(zint):
    with pytest.raises(ValueError):
        convolve(zint, one(INT), one(FLOAT), z_el(zint, 6))


def test_delta_is_identity(zint):
    rng = random.Random(1)
    d = delta()
    for _ in range(50):
        root = z_el(zint, rng.randint(1, 400))
        table = {e: rng.randint(-9, 9) for e in zint.divisors(root)}
        f = ArithFn(table.__getitem__, INT)
        assert convolve(zint, d, f, root) == table[root]
        assert convolve(zint, f, d, root) == table[root]


def test_convolution_commutative_associative(zint):
    rng = random.Random(2)
    zint.extend(13)
    pool = [a.id for a in zint.atoms[:6]]
    for _ in range(100):
        ids = sorted(rng.sample(pool, rng.randint(1, 4)))
        root = Element(tuple((i, rng.randint(1, 3)) for i in ids))
        divs = zint.divisors(root)
        t1, t2, t3 = ({e: rng.randint(-9, 9) for e in divs} for _ in range(3))
        f, g, h = (ArithFn(t.__getitem__, INT) for t in (t1, t2, t3))
        assert convolve(zint, f, g, root) == convolve(zint, g, f, root)
        fg = {e: convolve(zint, f, g, e) for e in divs}
        gh = {e: convolve(zint, g, h, e) for e in divs}
        lhs = convolve(zint, ArithFn(fg.__getitem__, INT), h, root)
        rhs = convolve(zint, f, ArithFn(gh.__getitem__, INT), root)
        assert lhs == rhs


def test_mobius_inversion(zint):
    rng = random.Random(3)
    mu, unit = mobius_fn(), one()
    for _ in range(100):
        root = z_el(zint, rng.randint(1, 2000))
        table = {e: rng.randint(-9, 9) for e in zint.divisors(root)}
        g = ArithFn(table.__getitem__, INT)
        f_tab = {e: convolve(zint, g, unit, e) for e in zint.divisors(root)}
        f = ArithFn(f_tab.__getitem__, INT)
        for e in zint.divisors(root):
            assert convolve(zint, f, mu, e) == table[e]


def test_dirichlet_inverse_examples(zint):
    root = z_el(zint, 360)
    inv_one = dirichlet_inverse(zint, one(), root)
    for d in zint.divisors(root):
        assert inv_one[d] == mobius(d)
    inv_delta = dirichlet_inverse(zint, delta(), root)
    for d in zint.divisors(root):
        assert inv_delta[d] == (1 if d.is_zero else 0)
    p = z_el(zint, 7)
    assert dirichlet_inverse(zint, norm_fn(zint), p)[p] == -7


def test_dirichlet_inverse_is_inverse(zint):
    rng = random.Random(4)
    for _ in range(50):
        root = z_el(zint, rng.randint(2, 500))
        table = {e: rng.choice([1, -1]) if e.is_zero else rng.randint(-9, 9)
                 for e in zint.divisors(root)}
        f = ArithFn(table.__getitem__, INT)
        g = dirichlet_inverse(zint, f, root).as_fn()
        for d in zint.divisors(root):
            assert convolve(zint, f, g, d) == (1 if d.is_zero else 0)


def test_dirichlet_inverse_rejects_noninvertible(zint):
    root = z_el(zint, 6)
    f = ArithFn(lambda e: 2, INT)  # 2 is not a unit over the integers
    with pytest.raises(ValueError):
        dirichlet_inverse(zint, f, root)
    z = ArithFn(lambda e: 0.0, FLOAT)
    with pytest.raises(ValueError):
        dirichlet_inverse(zint, z, root)


def test_jordan_totient_examples(zint):
    for n in (1, 2, 12, 30):
        e = z_el(zint, n)
        assert jordan_totient(zint, e, 0) == (1 if e.is_zero else 0)
    assert jordan_totient(zint, z_el(zint, 6), 1) == 2
    assert jordan_totient(zint, z_el(zint, 2), 2) == 3
    assert jordan_totient(zint, z_el(zint, 12), -1) == Fraction(1, 12) - Fraction(1, 6) - Fraction(1, 4) + Fraction(1, 2)


def test_jordan_totient_float_and_complex(zint):
    e = z_el(zint, 12)
    exact = jordan_totient(zint, e, 1)
    assert exact == 4
    assert math.isclose(jordan_totient(zint, e, 1.0), float(exact), rel_tol=1e-12)
    zc = jordan_totient(zint, e, 1 + 0j)
    assert math.isclose(zc.real, float(exact), rel_tol=1e-12)
    assert abs(zc.imag) < 1e-12


def test_jordan_totient_is_norm_convolved_mobius(zint, qi, q23, q5):
    """The Euler product against its definition, the convolution N**s * mu."""
    int_mu = mobius_fn()
    rat_mu = ArithFn(lambda e: Fraction(mobius(e)), RATIONAL)
    for inst, top in ((zint, 10**4), (qi, 2000), (q23, 2000), (q5, 2000)):
        elems = list(inst.enumerate_up_to(top))
        for s in (0, 1, 2, -1):
            if s >= 0:
                mu, power = int_mu, ArithFn(lambda e: inst.norm(e) ** s, INT)
            else:
                mu, power = rat_mu, ArithFn(lambda e: Fraction(1, inst.norm(e) ** -s), RATIONAL)
            for e in elems:
                assert jordan_totient(inst, e, s) == convolve(inst, power, mu, e)


def test_abel_sum_trivial(zint):
    res = abel_sum(zint, one(FLOAT), lambda t: t * t, 1)
    assert res.direct == res.partial == 1.0
    assert res.residual == 0.0


def test_abel_sum_harmonic(zint):
    res = abel_sum(zint, one(FLOAT), lambda t: 1.0 / t, 10)
    exact = Fraction(7381, 2520)
    assert math.isclose(res.direct, float(exact), rel_tol=1e-14)
    assert res.residual < 1e-12


def test_abel_sum_log_factorial(zint):
    res = abel_sum(zint, one(FLOAT), math.log, 100)
    assert math.isclose(res.direct, math.lgamma(101), rel_tol=1e-13)
    assert res.residual < 1e-9


def test_abel_sum_matches_harmonic_quadratic(qi):
    res = abel_sum(qi, one(FLOAT), lambda t: 1.0 / t, 200)
    assert math.isclose(res.direct, qi.harmonic_up_to(200), rel_tol=1e-12)
    assert res.residual < 1e-12


def test_abel_sum_signed_weight(zint):
    g = ArithFn(lambda e: float(mobius(e)), FLOAT)
    res = abel_sum(zint, g, lambda t: 1.0 / t, 500)
    direct = sum(mobius(factor_integer(zint, n)) / n for n in range(1, 501))
    assert math.isclose(res.direct, direct, rel_tol=1e-12)
    assert res.residual < 1e-12


def test_abel_sum_fractional_endpoint(zint):
    # the last segment integrates out to the real endpoint, not its floor
    res = abel_sum(zint, one(FLOAT), lambda t: 1.0 / t, 10.75)
    exact = Fraction(7381, 2520)
    assert math.isclose(res.direct, float(exact), rel_tol=1e-14)
    assert res.residual < 1e-12
