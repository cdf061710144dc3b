import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import gaussian_ideal_counts
from ramsums import ZERO, DensityMeta, Element, factor_integer


def z_el(zint, n):
    return factor_integer(zint, n)


# -- value classes -----------------------------------------------------


def test_density_meta_checks_its_values():
    assert (DensityMeta().c, DensityMeta(1.0, 0.5).alpha) == (None, 0.5)
    assert DensityMeta(1.0)._replace(alpha=0.5) == DensityMeta(1.0, 0.5)
    for bad in ({"c": 0}, {"c": -1.0}, {"alpha": 1}):
        with pytest.raises(ValueError):
            DensityMeta(**bad)
        # _replace and _make build through the constructor's checks too
        with pytest.raises(ValueError):
            DensityMeta(1.0)._replace(**bad)
        with pytest.raises(ValueError):
            DensityMeta._make(dict({"c": None, "alpha": None}, **bad).values())


# -- element algebra --------------------------------------------------


def test_element_of_normalizes():
    e = Element.of({3: 2, 1: 0, 0: 1})
    assert e.exps == ((0, 1), (3, 2))
    assert Element.of({}) == ZERO
    with pytest.raises(ValueError):
        Element.of({0: -1})
    with pytest.raises(ValueError):
        Element.of([(0, 1), (0, 2)])


def test_norm_examples(zint, qi):
    assert zint.norm(ZERO) == 1
    assert zint.norm(z_el(zint, 12)) == 12
    one_plus_i = Element(((qi.atom_by_label("p2r").id, 2),))
    assert qi.norm(one_plus_i) == 4


def test_leq_examples(zint):
    assert ZERO.leq(z_el(zint, 30))
    assert z_el(zint, 6).leq(z_el(zint, 12))
    assert not z_el(zint, 4).leq(z_el(zint, 6))


def test_add_sub_gcd_examples(zint):
    a, b = z_el(zint, 12), z_el(zint, 18)
    assert a.gcd(ZERO) == ZERO
    assert a.gcd(b) == z_el(zint, 6)
    assert z_el(zint, 12).sub(z_el(zint, 4)) == z_el(zint, 3)
    assert a.add(b) == z_el(zint, 216)
    with pytest.raises(ValueError):
        z_el(zint, 4).sub(z_el(zint, 8))
    with pytest.raises(ValueError):
        z_el(zint, 4).sub(z_el(zint, 3))


@st.composite
def small_elements(draw, max_atoms=4, max_id=5, max_exp=3):
    ids = draw(st.lists(st.integers(0, max_id), unique=True, max_size=max_atoms))
    return Element(tuple(sorted((i, draw(st.integers(1, max_exp))) for i in ids)))


@given(small_elements(), small_elements())
def test_norm_completely_multiplicative(zint, a, b):
    zint.extend(13)  # ids 0..5 cover primes 2..13
    assert zint.norm(a.add(b)) == zint.norm(a) * zint.norm(b)


@given(small_elements(), small_elements())
def test_gcd_order_consistency(a, b):
    g = a.gcd(b)
    assert g.leq(a) and g.leq(b)
    assert a.leq(b) == (a.gcd(b) == a)


@given(small_elements(), small_elements())
def test_sub_inverts_add(a, b):
    assert a.add(b).sub(b) == a


# -- divisors ----------------------------------------------------------


def test_divisors_examples(zint, qi):
    assert zint.divisors(ZERO) == [ZERO]
    divs = zint.divisors(z_el(zint, 12))
    assert [zint.norm(d) for d in divs] == [1, 2, 3, 4, 6, 12]
    two = Element(((qi.atom_by_label("p2r").id, 2),))
    chain = qi.divisors(two)
    assert [qi.norm(d) for d in chain] == [1, 2, 4]


@given(small_elements())
@settings(max_examples=60)
def test_divisor_count_and_order(zint, e):
    zint.extend(13)
    divs = zint.divisors(e)
    expected = 1
    for _, exp in e.exps:
        expected *= exp + 1
    assert len(divs) == len(set(divs)) == expected
    assert all(d.leq(e) for d in divs)
    norms = [zint.norm(d) for d in divs]
    assert norms == sorted(norms)


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_divisors_are_complement_symmetric(zint, qi, q23, q5, data):
    inst = data.draw(st.sampled_from([zint, qi, q23, q5]))
    pool = list(range(8))
    ids = data.draw(st.lists(st.sampled_from(pool), unique=True, max_size=4))
    pairs = [(a, b) for a, b in zip(pool, pool[1:]) if inst.norms[a] == inst.norms[b]]
    if pairs:  # both ideals above one split prime: the norm ties
        split = data.draw(st.sampled_from(pairs))
        ids = data.draw(st.permutations(list(dict.fromkeys(ids + list(split)))))
    e = Element(tuple((aid, data.draw(st.integers(1, 3))) for aid in ids))
    divs = inst.divisors(e)
    assert len(divs) == math.prod(exp + 1 for _, exp in e.exps)
    for i, d in enumerate(divs):
        assert divs[-1 - i] == e.sub(d)
    norms = [inst.norm(d) for d in divs]
    assert norms == sorted(norms)
    if inst is zint:
        every = [
            Element(tuple((aid, x) for (aid, _), x in zip(e.exps, vec) if x))
            for vec in itertools.product(*(range(exp + 1) for _, exp in e.exps))
        ]
        assert divs == sorted(every, key=inst.norm)


# -- enumeration and counting ------------------------------------------


def test_enumerate_counts(zint, qi):
    assert [zint.norm(e) for e in zint.enumerate_up_to(10)] == list(range(1, 11))
    assert len(list(qi.enumerate_up_to(5))) == 5
    assert [qi.norm(e) for e in qi.enumerate_up_to(5)] == [1, 2, 4, 5, 5]
    assert len(list(qi.enumerate_up_to(10))) == 9
    assert list(zint.enumerate_up_to(0.5)) == []
    assert qi.count_up_to(1) == 1
    assert qi.count_up_to(0.2) == 0


def test_enumerate_agrees_with_filter(qi):
    wide = [e for e in qi.enumerate_up_to(60) if qi.norm(e) <= 23]
    narrow = list(qi.enumerate_up_to(23))
    assert wide == narrow


def test_enumerate_tie_order(qi):
    # equal norms are ordered by the exponent vector: p5a before p5b
    labels = [
        [qi.atom(a).label for a, _ in e.exps] for e in qi.enumerate_up_to(5)
    ]
    assert labels == [[], ["p2r"], ["p2r"], ["p5a"], ["p5b"]]


def test_enumerate_order_deterministic(qi):
    first = [(qi.norm(e), e.exps) for e in qi.enumerate_up_to(50)]
    second = [(qi.norm(e), e.exps) for e in qi.enumerate_up_to(50)]
    assert first == second
    norms = [n for n, _ in first]
    assert norms == sorted(norms)


def test_gaussian_counts_against_character_oracle(qi):
    limit = 10**4
    oracle = gaussian_ideal_counts(limit)
    counts = qi.norm_counts(limit)
    assert counts[1 : limit + 1].tolist() == oracle[1:]


def test_count_matches_enumeration(zint, qi, q23, q2):
    rng = random.Random(7)
    for inst in (zint, qi):
        for _ in range(100):
            x = rng.randint(1, 10**4)
            assert inst.count_up_to(x) == len(list(inst.enumerate_up_to(x)))
    for inst in (q23, q2):
        for _ in range(100):
            x = rng.randint(1, 3000)
            assert inst.count_up_to(x) == len(list(inst.enumerate_up_to(x)))


def test_extend_is_monotone_and_idempotent(qi):
    qi.extend(100)
    n100 = len(qi.atoms)
    qi.extend(50)
    assert len(qi.atoms) == n100
    norms = [a.norm for a in qi.atoms]
    assert norms == sorted(norms)
    assert all(a.id == i for i, a in enumerate(qi.atoms))


def test_incremental_extension_matches_fresh_table(qi):
    from ramsums import quadratic_field

    fresh = quadratic_field(-1)
    fresh.extend(300)
    qi.extend(300)
    ours = [(a.id, a.norm, a.label) for a in qi.atoms if a.norm <= 300]
    theirs = [(a.id, a.norm, a.label) for a in fresh.atoms]
    assert ours == theirs


def test_harmonic_prefix_matches_direct(zint):
    zint.norm_counts(50)
    direct = sum(1.0 / n for n in range(1, 21))
    assert math.isclose(zint.harmonic_up_to(20), direct, rel_tol=1e-12)


@pytest.mark.parametrize("d", [None, -1, -23])
def test_harmonic_up_to_is_the_left_to_right_sum(d):
    # exact equality with a term-by-term float loop, on both sides of the
    # 2**15-quotient slices of the sum
    from ramsums import quadratic_field, rational_integers

    inst = rational_integers() if d is None else quadratic_field(d)
    ts = [1, 2**15 - 1, 2**15, 2**15 + 1, 70000]
    cnt = inst.norm_counts(ts[-1]).tolist()
    want, total = {}, 0.0
    for n in range(1, ts[-1] + 1):
        total += cnt[n] / n
        want[n] = total
    assert [inst.harmonic_up_to(t) for t in ts] == [want[t] for t in ts]


def test_mertens_matches_bruteforce(zint, qi):
    from ramsums import mobius

    for inst in (zint, qi):
        for x in (1, 5, 50, 300):
            brute = sum(mobius(Element(path)) for _, path in inst.scan_up_to(x))
            assert inst.mertens_up_to(x) == brute


def test_concurrent_extension_is_consistent():
    from concurrent.futures import ThreadPoolExecutor

    from ramsums import quadratic_field

    inst = quadratic_field(-1)
    bounds = [50, 200, 120, 500, 300, 80, 450, 250]
    with ThreadPoolExecutor(max_workers=8) as pool:
        counts = list(pool.map(inst.count_up_to, bounds))
    fresh = quadratic_field(-1)
    assert counts == [fresh.count_up_to(b) for b in bounds]
    labels = [a.label for a in inst.atoms]
    assert len(labels) == len(set(labels))
    norms = [a.norm for a in inst.atoms]
    assert norms == sorted(norms)


# -- the batched sieve against independent oracles ----------------------

#: Discriminants covering every behavior of 2 (ramified, split, inert) and
#: of small odd primes, keyed to the d of Q(sqrt(d)).
FIELD_D = {-4: -1, -3: -3, -23: -23, 5: 5, 8: 2, 13: 13}


def _near_squares():
    """Bounds around the sqrt split of the sieve: squares, and p*p - 1,
    p*p, p*p + 1 for small primes p."""
    from ramsums.fields import sieve_primes

    near = st.sampled_from(sieve_primes(50)).flatmap(
        lambda p: st.sampled_from([p * p - 1, p * p, p * p + 1])
    )
    return st.one_of(st.integers(1, 2500), st.integers(1, 50).map(lambda r: r * r), near)


def _integer_mobius(n: int) -> int:
    mu, f = 1, 2
    while f * f <= n:
        if n % f == 0:
            n //= f
            if n % f == 0:
                return 0
            mu = -mu
        f += 1
    return -mu if n > 1 else mu


@given(st.sampled_from(sorted(FIELD_D)), _near_squares())
@settings(max_examples=40, deadline=None)
def test_sieve_matches_character_oracle(disc, bound):
    from oracles import kronecker_counts

    from ramsums import quadratic_field

    inst = quadratic_field(FIELD_D[disc])  # fresh: the sieve splits at this bound
    oracle = kronecker_counts(disc, bound)
    assert inst.norm_counts(bound)[1 : bound + 1].tolist() == oracle[1:]
    assert [inst.count_up_to(x) for x in range(bound + 1)] == [0] + [
        sum(oracle[1 : x + 1]) for x in range(1, bound + 1)
    ]


@given(st.sampled_from(sorted(FIELD_D)), _near_squares())
@settings(max_examples=30, deadline=None)
def test_mertens_matches_scan(disc, bound):
    from ramsums import mobius, quadratic_field

    inst = quadratic_field(FIELD_D[disc])
    brute = sum(mobius(Element(path)) for _, path in inst.scan_up_to(bound))
    assert inst.mertens_up_to(bound) == brute


@given(_near_squares())
@settings(max_examples=30, deadline=None)
def test_integer_counts_and_mertens(bound):
    from ramsums import rational_integers

    inst = rational_integers()
    assert inst.norm_counts(bound)[1 : bound + 1].tolist() == [1] * bound
    assert inst.count_up_to(bound) == bound
    fresh = rational_integers()
    assert fresh.mertens_up_to(bound) == sum(_integer_mobius(n) for n in range(1, bound + 1))


def _instance(disc):
    """A fresh instance: Z for disc 1, else the field of discriminant disc."""
    from ramsums import quadratic_field, rational_integers

    return rational_integers() if disc == 1 else quadratic_field(FIELD_D[disc])


@given(st.sampled_from([1] + sorted(FIELD_D)), _near_squares())
@settings(max_examples=60, deadline=None)
def test_declared_count_matches_sieve_prefix(disc, bound):
    # bounds on both sides of every sqrt(x) split of the declared count
    inst = _instance(disc)
    sieved = np.cumsum(_instance(disc).norm_counts(bound)[: bound + 1])
    assert [inst.count_up_to(x) for x in range(bound + 1)] == sieved.tolist()
    assert not inst._tables and not inst.norms


@pytest.mark.parametrize("disc,x", [(-4, 10**8), (-4, 10**10), (-3, 10**8), (-3, 10**10)])
def test_declared_count_matches_lattice_points(disc, x):
    from oracles import lattice_ideal_count

    inst = _instance(disc)
    assert inst.count_up_to(x) == lattice_ideal_count(x, disc)
    assert not inst._tables and not inst.norms


def _around_the_list_cap(d):
    """x on both sides of LIST_COUNT_CAP in s = isqrt(x) and, where |D|
    passes it, in n = min(|D|, x + 1)."""
    from ramsums.fields import LIST_COUNT_CAP as cap

    xs = {1, 2, 10, 1000, cap - 1, cap, cap + 1, 10**6}
    if abs(d) < 10**7:  # a table of n = |D| entries stays small past the s side
        xs |= {cap * cap, (cap + 1) ** 2 - 1, (cap + 1) ** 2, 10**10}
    return sorted(xs)


@pytest.mark.parametrize("d", sorted(FIELD_D.values()) + [-1000003, -99999971])
def test_list_and_numpy_counts_agree(d, monkeypatch):
    from oracles import lattice_ideal_count

    from ramsums import fields, quadratic_field

    xs = _around_the_list_cap(d)
    count = quadratic_field(d).count_up_to
    # largest first, as a scan runs; the largest x is past the cap, and its
    # tables serve every later count, on either side of the cap
    top = count(xs[-1])
    calls = []
    real = fields.kronecker
    monkeypatch.setattr(fields, "kronecker", lambda *a: calls.append(a) or real(*a))
    got = [count(x) for x in reversed(xs[:-1])][::-1] + [top]
    again = [count(x) for x in xs]
    assert len(calls) == 0
    monkeypatch.setattr(fields, "kronecker", real)
    # ascending on a fresh instance: lists up to the cap, then arrays
    count = quadratic_field(d).count_up_to
    up = [count(x) for x in xs]
    del count  # frees the tables before the reference builds its own
    monkeypatch.setattr(fields, "LIST_COUNT_CAP", -1)  # numpy at every x
    want = [quadratic_field(d).count_up_to(x) for x in xs]
    assert got == again == up == want
    assert all(type(c) is int for c in got + again + up)
    disc = d if d % 4 == 1 else 4 * d
    if disc in (-4, -3):
        assert got == [lattice_ideal_count(x, disc) for x in xs]


def test_declared_count_ceiling():
    from ramsums.monoid import MAX_HYPERBOLA

    inst = _instance(-4)
    assert inst.count_up_to(MAX_HYPERBOLA) == 785398162406
    with pytest.raises(ValueError, match="limit"):
        inst.count_up_to(MAX_HYPERBOLA + 1)
    assert _instance(1).count_up_to(10**15) == 10**15  # floor(x) needs no ceiling


def test_undeclared_instance_counts_through_prefix(qi):
    """Without a declared counter, count_up_to sums the sieve's counts table."""
    from ramsums.monoid import MonoidInstance

    bare = MonoidInstance("bare Q(i)", qi._source, qi._labels)
    counts = [bare.count_up_to(x) for x in range(2001)]
    assert list(bare._tables) == ["counts"]
    assert counts == np.cumsum(gaussian_ideal_counts(2000)).tolist()
    assert counts == [qi.count_up_to(x) for x in range(2001)]


@pytest.mark.parametrize("disc", sorted(FIELD_D) + [-7, -8, 12, 17, -1003])
def test_character_table_matches_jacobi(disc):
    sympy = pytest.importorskip("sympy")
    from ramsums import kronecker
    from ramsums.fields import _character_table, sieve_primes

    primes = sieve_primes(3000)
    table = _character_table(disc, 3000)
    chi = table[primes].tolist()
    assert chi == [kronecker(disc, p) for p in primes]
    assert table.tolist() == [kronecker(disc, r) for r in range(3000)]
    for p, c in zip(primes[1:], chi[1:]):  # odd primes
        assert c == sympy.jacobi_symbol(disc % p, p)


def test_concurrent_lazy_prefixes_are_consistent():
    import sys
    from concurrent.futures import ThreadPoolExecutor

    from ramsums import quadratic_field

    inst = quadratic_field(-23)
    fresh = quadratic_field(-23)
    rng = random.Random(3)
    bounds = [rng.randint(1, 3000) for _ in range(48)]
    queries = (inst.count_up_to, inst.harmonic_up_to, inst.mertens_up_to)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(queries[i % 3], b) for i, b in enumerate(bounds)]
            got = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    want = [
        (fresh.count_up_to, fresh.harmonic_up_to, fresh.mertens_up_to)[i % 3](b)
        for i, b in enumerate(bounds)
    ]
    assert got == want


# -- exactness ------------------------------------------------------------


def test_atom_norms_stay_python_ints(zint, qi):
    from ramsums import ramanujan_sum

    for inst, label in ((zint, "p997"), (qi, "p997a"), (qi, "p31")):
        inst.extend(1000)
        assert all(type(inst.atom(i).norm) is int for i in range(len(inst.atoms)))
        assert all(type(q) is int for q in inst.norms)
        atom = inst.atom_by_label(label)
        q = atom.norm
        k = Element(((atom.id, 40),))
        assert inst.norm(k) == q**40  # far past int64
        assert [inst.norm(d) for d in inst.divisors(k)] == [q**e for e in range(41)]
        assert ramanujan_sum(inst, k, k) == q**40 - q**39
        assert ramanujan_sum(inst, k, Element(((atom.id, 39),))) == -(q**39)
