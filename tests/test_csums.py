import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import csum_brute, trig_csum
from ramsums import (
    INT,
    ZERO,
    ArithFn,
    Element,
    common_divisor_sum,
    delta,
    density_fit,
    divisibility_identity,
    divisor_sum_identity,
    double_sum,
    factor_integer,
    first_argument_convolution,
    fit_bound_constant,
    fixed_k_partial,
    harmonic_partial,
    jordan_like_local_form,
    mobius,
    mobius_fn,
    mobius_pair_profile,
    norm_fn,
    one,
    ramanujan_sum,
    residue_series,
    residue_target,
    second_argument_convolution,
    zeta_partial,
)


def z_el(zint, n):
    return factor_integer(zint, n)


def _random_element(rng, inst, pool, max_atoms=4, max_exp=3):
    ids = sorted(rng.sample(pool, rng.randint(1, max_atoms)))
    return Element(tuple((i, rng.randint(1, max_exp)) for i in ids))


# -- the sum itself -----------------------------------------------------


def test_csum_trivial_cases(zint):
    for m in (1, 5, 12, 30):
        assert ramanujan_sum(zint, ZERO, z_el(zint, m)) == 1
    for k in (2, 4, 6, 30, 36):
        ke = z_el(zint, k)
        assert ramanujan_sum(zint, ke, ZERO) == mobius(ke)


def test_csum_examples(zint, qi):
    assert ramanujan_sum(zint, z_el(zint, 6), z_el(zint, 4)) == -1
    p2r = qi.atom_by_label("p2r").id
    p5a = qi.atom_by_label("p5a").id
    assert ramanujan_sum(qi, Element(((p2r, 1),)), Element(((p2r, 2),))) == 1
    # M given with its larger id first is stored id-sorted
    m = Element(((p5a, 1), (p2r, 1)))
    assert m.exps == ((p2r, 1), (p5a, 1))
    assert ramanujan_sum(qi, Element(((p2r, 1),)), m) == 1


def test_csum_matches_definition_exhaustively(zint):
    for k in range(1, 121):
        ke = z_el(zint, k)
        for m in range(1, 121):
            me = z_el(zint, m)
            assert ramanujan_sum(zint, ke, me) == csum_brute(zint, ke, me)


def test_csum_matches_definition_quadratic(qi, q23):
    rng = random.Random(11)
    for inst in (qi, q23):
        elems = list(inst.enumerate_up_to(200))
        for _ in range(300):
            k = elems[rng.randrange(len(elems))]
            m = elems[rng.randrange(len(elems))]
            assert ramanujan_sum(inst, k, m) == csum_brute(inst, k, m)


@st.composite
def _csum_args(draw):
    """(instance name, K, M) over the first eight atoms, exponents up to 4.

    The (id, exponent) pairs of K and of M come in any order, as the raw
    constructor allows.  Either may be the identity.
    """
    name = draw(st.sampled_from(["zint", "qi", "q23"]))
    pairs = st.lists(
        st.tuples(st.integers(0, 7), st.integers(1, 4)), unique_by=lambda p: p[0], max_size=4
    )
    k = Element(tuple(draw(st.permutations(draw(pairs)))))
    m = Element(tuple(draw(st.permutations(draw(pairs)))))
    return name, k, m


@given(_csum_args())
@settings(max_examples=300, deadline=None)
def test_csum_matches_definitions_any_k_order(zint, qi, q23, args):
    name, k, m = args
    inst = {"zint": zint, "qi": qi, "q23": q23}[name]
    inst.ensure_atom_count(8)
    for e in (k, m, *inst.divisors(m)):
        assert list(e.exps) == sorted(e.exps)
    value = ramanujan_sum(inst, k, m)
    assert value == common_divisor_sum(inst, norm_fn(inst), mobius_fn(), m, k)
    assert value == csum_brute(inst, k, m)


def test_csum_against_trig_oracle(zint):
    for k in range(1, 31):
        ke = z_el(zint, k)
        for m in range(1, 31):
            z = trig_csum(k, m)
            c = ramanujan_sum(zint, ke, z_el(zint, m))
            assert abs(z - c) < 1e-9


def test_csum_depends_only_on_gcd(zint):
    rng = random.Random(12)
    for _ in range(200):
        k = z_el(zint, rng.randint(1, 500))
        m = z_el(zint, rng.randint(1, 500))
        g = k.gcd(m)
        assert ramanujan_sum(zint, k, m) == ramanujan_sum(zint, k, g)
        # any other m with the same gcd gives the same value
        m2 = g.add(z_el(zint, rng.choice([1, 7, 11, 49])))
        if k.gcd(m2) == g:
            assert ramanujan_sum(zint, k, m) == ramanujan_sum(zint, k, m2)


def test_csum_multiplicative_on_disjoint_supports(zint):
    rng = random.Random(13)
    checked = 0
    while checked < 200:
        k1 = z_el(zint, rng.randint(1, 60))
        k2 = z_el(zint, rng.randint(1, 60))
        if k1.gcd(k2) != ZERO:
            continue
        m = z_el(zint, rng.randint(1, 2000))
        lhs = ramanujan_sum(zint, k1.add(k2), m)
        assert lhs == ramanujan_sum(zint, k1, m) * ramanujan_sum(zint, k2, m)
        assert lhs == csum_brute(zint, k1.add(k2), m)
        checked += 1


def test_local_closed_form(zint, qi):
    rng = random.Random(14)
    for inst, top in ((zint, 2000), (qi, 500)):
        elems = list(inst.enumerate_up_to(top))
        for _ in range(300):
            k = elems[rng.randrange(len(elems))]
            m = elems[rng.randrange(len(elems))]
            local = jordan_like_local_form(inst, k, m)
            if local is not None:
                assert local == csum_brute(inst, k, m)


# -- bilinear sums -------------------------------------------------------


def test_common_divisor_sum_specializations(zint):
    mu, nf, unit = mobius_fn(), norm_fn(zint), one()
    rng = random.Random(15)
    for _ in range(60):
        m = z_el(zint, rng.randint(1, 300))
        k = z_el(zint, rng.randint(1, 300))
        assert common_divisor_sum(zint, nf, mu, m, k) == ramanujan_sum(zint, k, m)
        assert common_divisor_sum(zint, unit, unit, m, k) == len(zint.divisors(m.gcd(k)))
        assert common_divisor_sum(zint, nf, mu, ZERO, k) == mobius(k)


def test_common_divisor_sum_ring_mismatch(zint):
    from ramsums import FLOAT

    with pytest.raises(ValueError):
        common_divisor_sum(zint, one(), one(FLOAT), z_el(zint, 6), z_el(zint, 4))


# -- identity pairs ------------------------------------------------------


def test_divisor_sum_identity_examples(zint, qi):
    r = divisor_sum_identity(zint, ZERO)
    assert (r.lhs, r.rhs, r.passed) == (1, 1, True)
    r = divisor_sum_identity(zint, z_el(zint, 9))
    assert r.lhs == 3 and r.passed
    two = Element(((qi.atom_by_label("p2r").id, 2),))
    r = divisor_sum_identity(qi, two)
    assert r.lhs == 0 and r.rhs == 0 and r.passed


def test_divisibility_identity_examples(zint):
    r = divisibility_identity(zint, z_el(zint, 8), ZERO)
    assert (r.lhs, r.rhs, r.passed) == (1, 1, True)
    r = divisibility_identity(zint, z_el(zint, 8), z_el(zint, 4))
    assert (r.lhs, r.rhs) == (4, 4)
    r = divisibility_identity(zint, z_el(zint, 6), z_el(zint, 4))
    assert (r.lhs, r.rhs) == (0, 0)


def test_identity_pairs_small_sweep(zint, qi):
    for k in zint.enumerate_up_to(200):
        assert divisor_sum_identity(zint, k).passed
    for k in qi.enumerate_up_to(100):
        assert divisor_sum_identity(qi, k).passed
    for m in zint.enumerate_up_to(40):
        for n in zint.enumerate_up_to(40):
            assert divisibility_identity(zint, m, n).passed


def test_convolution_identities_special_cases(zint):
    mu, nf, unit, d = mobius_fn(), norm_fn(zint), one(), delta()
    k6, m10, n30 = z_el(zint, 6), z_el(zint, 10), z_el(zint, 30)
    # h = delta collapses the first identity to the bilinear sum itself
    r = first_argument_convolution(zint, nf, mu, d, k6, n30)
    assert r.passed and r.lhs == common_divisor_sum(zint, nf, mu, n30, k6)
    # f = N, g = mu, h = 1 reproduces the divisor-sum identity at k = n
    r = first_argument_convolution(zint, nf, mu, unit, k6, k6)
    assert r.passed and r.lhs == 0  # norm has an atom of norm 2
    # g * h = delta turns the second identity into the divisibility identity
    r = second_argument_convolution(zint, nf, mu, unit, m10, n30)
    ref = divisibility_identity(zint, m10, n30)
    assert r.passed and r.lhs == ref.lhs
    # m = 0: both sides reduce to f(0) * (g*h)(n) = delta(n) here
    r = second_argument_convolution(zint, nf, mu, unit, ZERO, n30)
    assert r.passed and r.lhs == 0
    r = second_argument_convolution(zint, nf, mu, unit, ZERO, ZERO)
    assert r.passed and r.lhs == 1


def test_convolution_identities_unrelated_arguments(zint):
    # k and n need not be comparable or share a root; tables live on the
    # downset of their sum
    rng = random.Random(21)
    zint.extend(20)
    pool = [a.id for a in zint.atoms[:8]]
    for _ in range(100):
        k = _random_element(rng, zint, pool, max_atoms=3)
        n = _random_element(rng, zint, pool, max_atoms=3)
        divs = zint.divisors(k.add(n))
        tf, tg, th = ({e: rng.randint(-9, 9) for e in divs} for _ in range(3))
        f, g, h = (ArithFn(t.__getitem__, INT) for t in (tf, tg, th))
        assert first_argument_convolution(zint, f, g, h, k, n).passed
        assert second_argument_convolution(zint, f, g, h, k, n).passed


def test_convolution_identities_quadratic_instance(qi):
    rng = random.Random(22)
    qi.ensure_atom_count(6)
    pool = [a.id for a in qi.atoms[:6]]
    for _ in range(50):
        k = _random_element(rng, qi, pool, max_atoms=3)
        n = _random_element(rng, qi, pool, max_atoms=3)
        divs = qi.divisors(k.add(n))
        tf, tg, th = ({e: rng.randint(-9, 9) for e in divs} for _ in range(3))
        f, g, h = (ArithFn(t.__getitem__, INT) for t in (tf, tg, th))
        assert first_argument_convolution(qi, f, g, h, k, n).passed
        assert second_argument_convolution(qi, f, g, h, k, n).passed


def test_convolution_identities_random(zint):
    rng = random.Random(16)
    zint.extend(20)
    pool = [a.id for a in zint.atoms[:8]]
    for _ in range(200):
        root = _random_element(rng, zint, pool)
        divs = zint.divisors(root)
        tf, tg, th = ({e: rng.randint(-9, 9) for e in divs} for _ in range(3))
        f, g, h = (ArithFn(t.__getitem__, INT) for t in (tf, tg, th))
        k = Element(tuple((a, d) for a, e in root.exps if (d := rng.randint(0, e))))
        n = Element(tuple((a, d) for a, e in root.exps if (d := rng.randint(0, e))))
        assert first_argument_convolution(zint, f, g, h, k, n).passed
        assert second_argument_convolution(zint, f, g, h, k, n).passed


# -- series and partial sums ---------------------------------------------


def test_harmonic_partial(zint, qi):
    assert harmonic_partial(zint, 1, exact=True) == 1
    assert harmonic_partial(zint, 3, exact=True) == Fraction(11, 6)
    assert harmonic_partial(qi, 2, exact=True) == Fraction(3, 2)
    approx = harmonic_partial(zint, 1000)
    exact = harmonic_partial(zint, 1000, exact=True)
    assert math.isclose(approx, float(exact), rel_tol=1e-12)


def test_residue_series_rejects_identity(zint):
    with pytest.raises(ValueError):
        residue_series(zint, ZERO, 100)


def test_residue_series_modes_agree(zint):
    for k in (2, 6, 12):
        ke = z_el(zint, k)
        grouped = residue_series(zint, ke, 3000, mode="grouped")
        direct = residue_series(zint, ke, 3000, mode="direct")
        assert math.isclose(grouped, direct, abs_tol=1e-9)
    with pytest.raises(ValueError):
        residue_series(zint, z_el(zint, 2), 100, mode="sideways")


def test_residue_series_modes_agree_quadratic(qi):
    p2r = qi.atom_by_label("p2r").id
    p5a = qi.atom_by_label("p5a").id
    for ke in (Element(((p2r, 1),)), Element(((p2r, 2),)), Element(((p5a, 1), (p2r, 1)))):
        grouped = residue_series(qi, ke, 2000, mode="grouped")
        direct = residue_series(qi, ke, 2000, mode="direct")
        assert math.isclose(grouped, direct, abs_tol=1e-9)


def test_fixed_k_partial_quadratic_brute(qi):
    rng = random.Random(23)
    qi.ensure_atom_count(4)
    pool = [a.id for a in qi.atoms[:4]]
    for _ in range(15):
        k = _random_element(rng, qi, pool, max_atoms=2, max_exp=2)
        x = rng.randint(1, 800)
        brute = sum(ramanujan_sum(qi, k, Element(path)) for _, path in qi.scan_up_to(x))
        assert fixed_k_partial(qi, k, x) == brute


def test_residue_series_desk_scale(zint):
    k6 = z_el(zint, 6)
    assert abs(residue_series(zint, k6, 10**4)) < 1e-2  # Lambda(6) = 0
    k2 = z_el(zint, 2)
    est = residue_series(zint, k2, 10**5)
    assert abs(est - (-math.log(2))) < 1e-3
    assert residue_target(zint, k2) == -math.log(2)


def test_residue_target_unknown_density(q2):
    inst_k = Element(((q2.atom_by_label("p2r").id, 1),))
    assert residue_target(q2, inst_k) is None


def test_zeta_partial(zint, qi):
    assert zeta_partial(zint, 2.0, 1).value == 1.0
    z = zeta_partial(zint, 2.0, 10**5)
    assert abs(z.value - math.pi**2 / 6) < 2e-5
    assert z.tail_bound == pytest.approx(1.0 / 10**5)
    # complex exponent stays finite and matches the real part at t = 0
    zc = zeta_partial(zint, complex(2.0, 0.0), 1000)
    assert math.isclose(zc.value.real, zeta_partial(zint, 2.0, 1000).value, rel_tol=1e-12)
    assert qi.density.c is not None
    assert zeta_partial(qi, 1.5, 100).tail_bound is not None


def test_zeta_partial_genuinely_complex(zint):
    s = 1.5 + 1.0j
    val = zeta_partial(zint, s, 500).value
    ref = sum(n ** (-s) for n in range(1, 501))
    assert abs(val - ref) < 1e-10


def test_zeta_residue_extrapolation(zint):
    # (sigma - 1) * Z(sigma) -> c as sigma -> 1; quadratic extrapolation
    sigmas = [1.5, 1.75, 2.0]
    vals = [(s - 1.0) * zeta_partial(zint, s, 10**5).value for s in sigmas]
    # Lagrange extrapolation to sigma = 1
    est = 0.0
    for i, (si, vi) in enumerate(zip(sigmas, vals)):
        w = 1.0
        for j, sj in enumerate(sigmas):
            if j != i:
                w *= (1.0 - sj) / (si - sj)
        est += w * vi
    assert abs(est - 1.0) <= 0.05


def test_fixed_k_partial(zint):
    assert fixed_k_partial(zint, ZERO, 10**4) == 10**4
    assert fixed_k_partial(zint, z_el(zint, 2), 10) == 0
    assert fixed_k_partial(zint, z_el(zint, 6), 6) == 0
    rng = random.Random(17)
    for _ in range(25):
        k = z_el(zint, rng.choice([2, 3, 4, 6, 9, 12, 30]))
        x = rng.randint(1, 2000)
        brute = sum(
            ramanujan_sum(zint, k, Element(path)) for _, path in zint.scan_up_to(x)
        )
        assert fixed_k_partial(zint, k, x) == brute


def test_fixed_k_bounded_for_every_x(zint):
    # over the integers the counting function is the identity, so the partial
    # sum is a finite signed combination of floor terms; sweep every x <= 1e6
    import numpy as np

    xs = np.arange(1, 10**6 + 1, dtype=np.int64)
    for k in (2, 6, 12):
        ke = z_el(zint, k)
        total = np.zeros_like(xs)
        sigma = 0
        for d in zint.divisors(ke):
            nd = zint.norm(d)
            sigma += nd
            mu = mobius(ke.sub(d))
            if mu:
                total += nd * mu * (xs // nd)
        assert int(np.abs(total).max()) <= sigma
        for x in (1, 17, 1000, 999983, 10**6):
            assert fixed_k_partial(zint, ke, x) == int(total[x - 1])


def test_double_sum_examples(zint, qi):
    assert double_sum(zint, 3, 2).value == 2
    assert double_sum(qi, 2, 2).value == 2
    rep = double_sum(zint, 100, 1.5)  # only the identity element below y
    assert rep.value == zint.count_up_to(100)
    assert rep.direct == rep.value
    assert rep.residual == rep.value - 100.0


def test_double_sum_direct_agreement(zint, qi):
    rng = random.Random(18)
    for inst in (zint, qi):
        for _ in range(10):
            x, y = rng.randint(1, 400), rng.randint(1, 40)
            rep = double_sum(inst, x, y)
            assert rep.direct is not None and rep.direct == rep.value


def test_double_sum_skips_direct_when_large(zint):
    rep = double_sum(zint, 10**4, 200, direct_budget=10**5)
    assert rep.direct is None
    assert rep.value == double_sum(zint, 10**4, 200, direct_budget=10**7).direct


def test_mobius_pair_identity(zint, qi):
    profile = mobius_pair_profile(zint, 200)
    assert all(v == 1 for v in profile[1:])
    assert mobius_pair_profile(qi, 100)[100] == 1


def test_density_fit(zint):
    samples = [(x, zint.count_up_to(x)) for x in (10**3, 10**4, 10**5, 10**6)]
    c_hat, alpha_hat = density_fit(samples)
    assert abs(c_hat - 1.0) <= 1e-6
    assert alpha_hat is None  # residuals vanish identically over Z
    with pytest.raises(ValueError):
        density_fit(samples[:2])


def test_density_fit_quadratic(qi, q23):
    samples = [(x, qi.count_up_to(x)) for x in (10**3, 10**4, 10**5, 10**6)]
    c_hat, alpha_hat = density_fit(samples)
    assert abs(c_hat - math.pi / 4) <= 0.01
    assert alpha_hat is None or alpha_hat < 1.0
    samples = [(x, q23.count_up_to(x)) for x in (10**3, 10**4, 10**5, 10**6)]
    c_hat, _ = density_fit(samples)
    want = 3 * math.pi / math.sqrt(23)
    assert abs(c_hat - want) / want <= 0.02


def test_fit_bound_constant(zint):
    reports = [double_sum(zint, x, y) for x in (10**3, 10**4) for y in (2, 5, 10)]
    c = fit_bound_constant(reports, 0.0)
    assert c <= 3.0
