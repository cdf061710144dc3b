import math
import random
from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    csum_brute,
    element_convolve,
    element_first_argument,
    element_inverse,
    element_second_argument,
    trig_csum,
)
from ramsums import (
    COMPLEX,
    FLOAT,
    INT,
    RATIONAL,
    ZERO,
    ArithFn,
    Element,
    MonoidInstance,
    common_divisor_sum,
    convolve,
    csum_block,
    csums,
    delta,
    density_fit,
    dirichlet_inverse,
    divisibility_identity,
    divisor_sum_identity,
    double_sum,
    double_sums,
    factor_integer,
    first_argument_convolution,
    fit_bound_constant,
    fixed_k_partial,
    harmonic_partial,
    jordan_like_local_form,
    jordan_totient,
    mobius,
    mobius_fn,
    mobius_pair_profile,
    norm_fn,
    one,
    ramanujan_sum,
    residue_scan,
    residue_series,
    residue_target,
    second_argument_convolution,
    von_mangoldt_by_divisors,
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


@pytest.mark.parametrize("name,bound", [("zint", 60), ("qi", 50), ("q23", 40), ("q5", 40)])
def test_csum_block_matches_scalar_evaluator(request, name, bound):
    # on Z, 32 = 2**5 meets M with 2-exponent >= 5, = 4 and < 4: all three
    # per-atom factors
    inst = request.getfixturevalue(name)
    elems = list(inst.enumerate_up_to(bound))
    cases = [(elems, elems), (elems[::3], elems[1::2]), ([], elems), (elems, []), ([ZERO], elems),
             (elems, [ZERO])]
    for ks, ms in cases:
        want = [[ramanujan_sum(inst, k, m) for m in ms] for k in ks]
        for rows, cols in _prepared(inst, ks, ms):
            block = csum_block(inst, rows, cols)
            assert block.dtype == np.int64 and block.shape == (len(ks), len(ms))
            assert block.tolist() == want


def _prepared(inst, ks, ms):
    """(ks, ms) as lists, then with the rows, the columns and both read into
    a CsumSide; each prepared side serves two calls."""
    rows, cols = csums.CsumSide(inst, ks), csums.CsumSide(inst, ms)
    return [(ks, ms), (rows, ms), (ks, cols), (rows, cols)]


def test_csum_block_refuses_norms_past_int64(zint):
    two = z_el(zint, 2).exps[0][0]
    fits, past = Element(((two, 62),)), Element(((two, 63),))
    for rows, cols in _prepared(zint, [fits], [ZERO]):
        assert csum_block(zint, rows, cols).tolist() == [[0]]
    for rows, cols in _prepared(zint, [past], [ZERO]):
        with pytest.raises(OverflowError):
            csum_block(zint, rows, cols)
    # only the rows are refused: csum(1, M) = 1 at a column of any norm
    for rows, cols in _prepared(zint, [ZERO], [past]):
        assert csum_block(zint, rows, cols).tolist() == [[1]]


def test_csum_block_reads_column_exponents_above_127(zint, qi):
    # csum reads only whether M's exponent of P reaches e or is e - 1, so
    # column exponents past any int8 must compare as the scalar walk does
    two = z_el(zint, 2).exps[0][0]
    cases = [(zint, [z_el(zint, 2), z_el(zint, 4)], [Element(((two, 200),))])]
    p, q = qi.atoms[0].id, qi.atoms[1].id
    ms = [Element(((p, 128),)), Element(((p, 300), (q, 1))), Element(((p, 4), (q, 130))), ZERO]
    cases.append((qi, list(qi.enumerate_up_to(40)), ms))
    for inst, ks, ms in cases:
        for rows, cols in _prepared(inst, ks, ms):
            block = csum_block(inst, rows, cols)
            assert block.tolist() == [[ramanujan_sum(inst, k, m) for m in ms] for k in ks]
            assert block.any()


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


def test_local_closed_form(zint, qi, q23, q5):
    rng = random.Random(14)
    for inst, top in ((zint, 2000), (qi, 500), (q23, 500), (q5, 500)):
        elems = list(inst.enumerate_up_to(top))
        for _ in range(300):
            k = elems[rng.randrange(len(elems))]
            m = elems[rng.randrange(len(elems))]
            local = jordan_like_local_form(inst, k, m)
            assert type(local) is int
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


_DRAWS = {
    FLOAT: lambda rng: rng.uniform(-9, 9),
    COMPLEX: lambda rng: complex(rng.uniform(-9, 9), rng.uniform(-9, 9)),
    RATIONAL: lambda rng: Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
}


@pytest.mark.parametrize("ring", [FLOAT, COMPLEX, RATIONAL])
@pytest.mark.parametrize("which", ["zint", "qi"])
def test_index_evaluators_add_in_divisor_order(which, ring, request):
    """The evaluators read values by index, but add every sum in divisors()
    order: on float and complex tables, whose sums round differently in
    another order, they equal the Element loops of the oracles exactly."""
    inst = request.getfixturevalue(which)
    rng, draw, unit = random.Random(17), _DRAWS[ring], one(ring)(ZERO)
    inst.ensure_atom_count(8)
    pool = [a.id for a in inst.atoms[:8]]
    for _ in range(60):
        root = _random_element(rng, inst, pool)
        divs = inst.divisors(root)
        tf, tg, th = ({e: draw(rng) or unit for e in divs} for _ in range(3))
        f, g, h = (ArithFn(t.__getitem__, ring) for t in (tf, tg, th))
        k, n = (Element(tuple((a, d) for a, e in root.exps if (d := rng.randint(0, e)))) for _ in "kn")
        r = first_argument_convolution(inst, f, g, h, k, n)
        assert (r.lhs, r.rhs) == element_first_argument(inst, f, g, h, k, n, unit)
        r = second_argument_convolution(inst, f, g, h, k, n)
        assert (r.lhs, r.rhs) == element_second_argument(inst, f, g, h, k, n)
        assert convolve(inst, f, g, root) == element_convolve(inst, f, g, root)
        table = dirichlet_inverse(inst, f, root)
        assert {d: table[d] for d in divs} == element_inverse(inst, f, root, unit)


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


def test_divisor_loops_never_subtract(zint, qi, monkeypatch):
    """The divisor sums read each complement e - D from the reversed divisor
    list, so none of them calls Element.sub."""
    aid = {label: qi.atom_by_label(label).id for label in ("p2r", "p5a", "p5b", "p13a")}
    split = Element(((aid["p2r"], 1), (aid["p5a"], 2), (aid["p5b"], 1), (aid["p13a"], 1)))
    cases = [(zint, z_el(zint, 360)), (qi, split)]

    def evaluate(inst, e):
        return [
            convolve(inst, norm_fn(inst), mobius_fn(), e),
            dirichlet_inverse(inst, norm_fn(inst), e).values,
            *(jordan_totient(inst, e, s) for s in (1, -1, 0.5)),
            von_mangoldt_by_divisors(inst, e),
            fixed_k_partial(inst, e, 1000),
            residue_series(inst, e, 1000, mode="grouped"),
        ]

    expected = [evaluate(inst, e) for inst, e in cases]

    def refuse(self, other):
        raise AssertionError("Element.sub called")

    monkeypatch.setattr(Element, "sub", refuse)
    assert [evaluate(inst, e) for inst, e in cases] == expected


def test_closed_forms_walk_no_divisors(zint, qi, monkeypatch):
    """The totient and the local form are Euler products over the atoms of
    their argument, so neither calls MonoidInstance.divisors."""
    aid = {label: qi.atom_by_label(label).id for label in ("p2r", "p5a", "p5b", "p13a")}
    split = Element(((aid["p2r"], 1), (aid["p5a"], 2), (aid["p5b"], 1), (aid["p13a"], 1)))
    p5a_p13a = Element(((aid["p5a"], 1), (aid["p13a"], 3)))
    cases = [
        (zint, z_el(zint, 360), [z_el(zint, m) for m in (1, 2, 12, 90, 360, 7 * 40)]),
        (qi, split, [ZERO, split, p5a_p13a, split.add(p5a_p13a)]),
    ]

    def evaluate(inst, k, ms):
        return [
            *(jordan_totient(inst, k, s) for s in (0, 1, 2, -1, 0.5, 1 + 0j)),
            *(jordan_like_local_form(inst, k, m) for m in ms),
        ]

    expected = [evaluate(*case) for case in cases]

    def refuse(self, e):
        raise AssertionError("MonoidInstance.divisors called")

    monkeypatch.setattr(MonoidInstance, "divisors", refuse)
    assert [evaluate(*case) for case in cases] == expected


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
    from ramsums.monoid import _CHUNK_ITEMS

    s = 1.5 + 1.0j
    # _CHUNK_ITEMS + 1 = 2**15 + 1 ends one term into a second slice, so the
    # complex carry between slices is summed too
    for b in (500, _CHUNK_ITEMS + 1):
        val = zeta_partial(zint, s, b).value
        ref = sum(n ** (-s) for n in range(1, b + 1))  # left to right
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


def _head(inst, m, y):
    """The pairs of M on atoms of norm <= y."""
    return Element(tuple((a, e) for a, e in m.exps if inst.norms[a] <= y))


@st.composite
def _head_args(draw):
    """(instance name, y, index of K among the elements of norm <= y, M).

    M ranges over the first sixteen atoms, so it often reaches past y."""
    name = draw(st.sampled_from(["zint", "qi", "q23"]))
    y = draw(st.integers(1, 60))
    k_index = draw(st.integers(0, 10**6))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, 15), st.integers(1, 4)), unique_by=lambda p: p[0], max_size=5
    ))
    return name, y, k_index, Element(tuple(pairs))


@given(_head_args())
@settings(max_examples=300, deadline=None)
def test_csum_reads_only_the_head_of_m(zint, qi, q23, args):
    name, y, k_index, m = args
    inst = {"zint": zint, "qi": qi, "q23": q23}[name]
    inst.ensure_atom_count(16)
    ks = list(inst.enumerate_up_to(y))
    k = ks[k_index % len(ks)]
    value = ramanujan_sum(inst, k, m)
    assert value == ramanujan_sum(inst, k, _head(inst, m, y))
    assert value == csum_brute(inst, k, m)


def test_direct_sums_match_brute_force(zint, qi, q23):
    for inst in (zint, qi, q23):
        for x, y in ((1, 1), (60, 7), (25, 16), (9, 30)):
            ks = list(inst.enumerate_up_to(y))
            ms = list(inst.enumerate_up_to(x))
            brute = sum(csum_brute(inst, k, m) for k in ks for m in ms)
            assert double_sum(inst, x, y).direct == brute
        k = list(inst.enumerate_up_to(30))[-1]
        per_norm = [0] * 301
        for m in inst.enumerate_up_to(300):
            per_norm[inst.norm(m)] += csum_brute(inst, k, m)
        brute = sum(v / n for n, v in enumerate(per_norm) if v)
        assert residue_series(inst, k, 300, mode="direct") == brute


def test_direct_residue_past_int64_norms(zint):
    # N(K) > 2**63: the product of the first 16 primes, whose terms stay
    # below N(M) in size, and 2**70, whose every term vanishes below 2**69
    primorial = z_el(zint, math.prod([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53]))
    per_norm = [0] * 3001
    for m in zint.enumerate_up_to(3000):
        per_norm[zint.norm(m)] += ramanujan_sum(zint, primorial, m)
    brute = sum(v / n for n, v in enumerate(per_norm) if v)
    assert residue_series(zint, primorial, 3000, mode="direct") == brute
    assert residue_series(zint, z_el(zint, 2**70), 3000, mode="direct") == 0.0


@pytest.mark.parametrize("name", ["z", "q:-23"])
def test_direct_residue_scan_sums_per_norm_left_to_right(request, name):
    # the running float sum reads the per-norm sums in slices of 2**15
    # norms; the points sit on both sides of the first border and past the
    # second, and every value must equal the sum term by term, which holds
    # only when each slice takes the carry before it is summed
    inst = request.getfixturevalue({"z": "zint", "q:-23": "q23"}[name])
    k = z_el(inst, 2) if name == "z" else list(inst.enumerate_up_to(30))[-1]
    points = [2**15 - 1, 2**15, 2**15 + 1, 70000.5, 100]
    per_norm = [0] * 70001
    for norm, path in inst.scan_up_to(70000):
        per_norm[norm] += ramanujan_sum(inst, k, Element(path))
    total, running = 0.0, [0.0]
    for n in range(1, 70001):
        if per_norm[n]:
            total += per_norm[n] / n
        running.append(total)
    expected = [running[math.floor(x)] for x in points]
    assert residue_scan(inst, k, points, mode="direct") == expected


def test_double_sum_skips_direct_when_large(zint):
    rep = double_sum(zint, 10**4, 200, direct_budget=10**5)
    assert rep.direct is None
    assert rep.value == double_sum(zint, 10**4, 200, direct_budget=10**7).direct


@pytest.mark.parametrize("name", ["zint", "qi", "q23", "q5"])
def test_double_sums_match_one_point_at_a_time(request, name):
    # float x, a repeated point, x below y, and points on both sides of the
    # budget of 2000, out of order
    inst = request.getfixturevalue(name)
    grid = [(300, 7), (10, 2), (99.5, 5), (10, 50), (99.5, 5), (3, 50), (1000, 3),
            (2000, 1), (0.5, 4), (1000, 2), (300, 6.9)]
    reports = double_sums(inst, grid, direct_budget=2000)
    assert reports == [double_sum(inst, x, y, direct_budget=2000) for x, y in grid]
    assert [r.direct is not None for r in reports] == [
        int(x) * int(y) <= 2000 for x, y in grid
    ]


def test_double_sums_directs_match_brute_force(zint, qi, q23, q5):
    xs, ys = (1, 9, 25, 60), (1, 7, 16, 30)
    for inst in (zint, qi, q23, q5):
        ks = list(inst.enumerate_up_to(max(ys)))
        ms = list(inst.enumerate_up_to(max(xs)))
        table = [[csum_brute(inst, k, m) for m in ms] for k in ks]
        grid = [(x, y) for x in xs for y in ys]
        brute = [
            sum(
                v
                for k, row in zip(ks, table) if inst.norm(k) <= y
                for m, v in zip(ms, row) if inst.norm(m) <= x
            )
            for x, y in grid
        ]
        assert [r.direct for r in double_sums(inst, grid)] == brute


def _reference_head_counts(inst, bounds, cuts):
    """Per bucket, the multiplicity of each head, one element at a time:
    scan_up_to, then M's bucket by bisect on ``bounds`` and its head by
    bisect on its id-sorted pairs."""
    counts = [Counter() for _ in bounds]
    for norm, path in inst.scan_up_to(bounds[-1]):
        i = bisect_left(bounds, norm)
        # as a 1-tuple, the cut sorts after every pair with a smaller id
        counts[i][path[: bisect_left(path, (cuts[i],))]] += 1
    return counts


@pytest.mark.parametrize("name", ["zint", "qi", "q23", "q5"])
def test_head_scan_matches_the_element_scan(request, name):
    inst = request.getfixturevalue(name)
    inst.extend(60)
    cut = lambda y: bisect_right(inst.norms, y)
    # nonincreasing cuts, a repeated cut, and a last bucket with cut 0,
    # where every head is the identity
    for bounds, cuts in (
        ([1, 10, 100, 700, 2000], [cut(60), cut(60), cut(20), cut(7), 0]),
        ([3000], [cut(30)]),
        ([500, 501], [cut(2), cut(1)]),
    ):
        scan = csums._HeadScan(inst, bounds, cuts)
        norms, pairs = Counter(), Counter()
        for norm, bucket, head in scan:
            norms.update(norm.tolist())
            pairs.update(zip(bucket.tolist(), head.tolist()))
        counts = [Counter() for _ in bounds]
        for (i, h), mult in pairs.items():
            counts[i][scan.elements(np.array([h]))[0].exps] += mult
        assert counts == _reference_head_counts(inst, bounds, cuts)
        assert norms == Counter(n for n, _ in inst.scan_up_to(bounds[-1]))
    assert list(csums._HeadScan(inst, [0], [0])) == []
    assert csums._direct_sums(inst, set()) == {}


@pytest.mark.parametrize("name", ["zint", "q23"])
def test_direct_sum_at_the_y_cap(request, name):
    # the y cap of the CLI, where a fixed-width key over the heads would wrap
    rep = double_sum(request.getfixturevalue(name), 1000, 1000)
    assert rep.direct == rep.value


@pytest.mark.parametrize("mode", ["grouped", "direct"])
def test_residue_scan_matches_one_point_at_a_time(zint, qi, mode):
    points = [10, 100, 1000, 2500.5, 100, 0.5, 30]
    for inst, k in ((zint, z_el(zint, 12)), (qi, Element(((0, 2), (1, 1))))):
        assert residue_scan(inst, k, points, mode) == [
            residue_series(inst, k, x, mode) for x in points
        ]


@pytest.mark.parametrize("d,spec", [(None, "360"), (-1, "p5a*p5b")])
def test_grouped_residue_scan_caches_only_counts(d, spec):
    # one counts table, sized to the largest quotient x // N(D) over the D
    # with mu(K - D) != 0, and no float table
    from ramsums import quadratic_field, rational_integers
    from ramsums.cli import parse_element

    inst = rational_integers() if d is None else quadratic_field(d)
    k = parse_element(inst, spec)
    x = 10**5
    residue_scan(inst, k, [10, 1000, x, 500])
    divs = inst.divisors(k)
    t_max = max(x // inst.norm(dv) for dv, c in zip(divs, reversed(divs)) if mobius(c))
    if d is None:
        assert t_max == x // 12
    assert list(inst._tables) == ["counts"]
    assert len(inst._tables["counts"]) == t_max + 1


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
