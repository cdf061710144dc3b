"""Seeded identity and oracle suites behind the ``check`` CLI command.

Every suite returns a JSON-serializable report dict whose content is fully
determined by (instance, bound/trials, seed).
"""

from __future__ import annotations

import random
from itertools import chain

import numpy as np

from .arith import DownsetTable, jordan_totient
from .cli import SUITES, refuse_pairs
from .csums import (
    DivisorDownset,
    chunk_width,
    csum_block,
    divisor_sum_identity,
    first_argument_convolution,
    jordan_like_local_form,
    ramanujan_sum,
    second_argument_convolution,
)
from .monoid import Element, MonoidInstance

#: Most (K, M) pairs, n**2, that :func:`run_suite` lets th2 and oracle check.
MAX_PAIRS = 2**29


def _pmap(fn, items, workers: int):
    """[fn(item) for item in items]; ``workers`` is ignored.

    The per-item loops of th1, apostol and holder go through this name, with
    three positional arguments, because the benchmark's traced mode
    (``perfbench/traced.py``) rebinds ``_pmap`` to time them.
    """
    return [fn(item) for item in items]


def _report(suite: str, inst: MonoidInstance, **fields) -> dict:
    """The report envelope: suite name, instance name and the suite's fields."""
    return {"suite": suite, "instance": inst.name, **fields}


def suite_th1(inst: MonoidInstance, bound: int, ks: list[Element]) -> dict:
    """Divisor-sum identity for each of ``ks``, the elements with norm <= bound."""
    reports = _pmap(lambda k: divisor_sum_identity(inst, k), ks, 1)
    failures = [r.context for r in reports if not r.passed]
    return _report("th1", inst, bound=bound, checked=len(ks), failures=failures)


def suite_th2(inst: MonoidInstance, bound: int, downset: DivisorDownset) -> dict:
    """Divisibility identity for every pair (M, N) with norms <= bound.

    ``downset`` holds the n elements of norm <= bound, read once as the rows
    D.  The columns M go in chunks of w = :func:`chunk_width` (n), each an
    n x w int64 :func:`csum_block`, turned in place into the left side, the
    sum of csum(D, M) over the divisors D of N (the zeta transform over the
    divisor lattice): for each of the rows' groups P**e, in order, the rows
    of the N that P**e exactly divides add the row of N with P's exponent
    lowered by one.  The right side, norm(N) where N divides M, is then
    subtracted at the chunk's divisor pairs.  Every nonzero entry is a
    failure, listed N-major.
    """
    elems, index, n = downset.elems, downset.index, len(downset.elems)
    sweeps = [(kids, np.array([index[elems[i].sub(Element(((aid, 1),)))] for i in kids.tolist()]))
              for aid, _, kids in elems.groups]
    norms, width = np.array(downset.norms, np.int64), chunk_width(n)
    bad = []
    for c in range(0, n, width):
        chunk = csum_block(inst, elems, elems[c : c + width])
        for children, parents in sweeps:
            chunk[children] += chunk[parents]
        divs = downset.div_idx[c : c + width]
        rows = np.fromiter(chain.from_iterable(divs), np.intp)
        chunk[rows, np.repeat(np.arange(len(divs)), list(map(len, divs)))] -= norms[rows]
        rows, cols = np.nonzero(chunk)
        bad += zip(rows.tolist(), (cols + c).tolist())
    failures = [f"m={elems[j].exps} n={elems[i].exps}" for i, j in sorted(bad)]
    return _report("th2", inst, bound=bound, checked=n**2, failures=failures)


def _random_divisor(rng: random.Random, root: Element) -> Element:
    return Element(tuple((aid, d) for aid, e in root.exps if (d := rng.randint(0, e))))


def _random_case(rng: random.Random, inst: MonoidInstance, pool: list[int]):
    n_atoms = rng.randint(1, 4)
    aids = sorted(rng.sample(pool, n_atoms))
    root = Element(tuple((aid, rng.randint(1, 3)) for aid in aids))
    k = _random_divisor(rng, root)
    n = _random_divisor(rng, root)
    lat = inst.lattice(root)
    tables = []
    for name in "fgh":
        values = [0] * len(lat.order)
        for i in lat.order:  # one draw per divisor, in divisors(root) order
            values[i] = rng.randint(-9, 9)
        tables.append(DownsetTable(lat.index, values).as_fn(name))
    return root, k, n, tables


def suite_apostol(inst: MonoidInstance, trials: int, seed: int) -> dict:
    """Both bilinear convolution identities on seeded random integer tuples."""
    rng = random.Random(seed)
    inst.ensure_atom_count(8)
    pool = list(range(8))  # atom ids
    cases = [_random_case(rng, inst, pool) for _ in range(trials)]

    def run(case):
        root, k, n, (f, g, h) = case
        ra = first_argument_convolution(inst, f, g, h, k, n)
        rb = second_argument_convolution(inst, f, g, h, k, n)
        if ra.passed and rb.passed:
            return None
        return f"root={root.exps} k={k.exps} n={n.exps}"

    failures = [ctx for ctx in _pmap(run, cases, 1) if ctx is not None]
    return _report(
        "apostol", inst, trials=trials, seed=seed, checked=2 * trials, failures=failures
    )


def suite_holder(inst: MonoidInstance, bound: int, seed: int, downset: DivisorDownset) -> dict:
    """Fast evaluator against the definitional sum and the local closed form.

    csum(K, M) depends on M only through G = gcd(M, K), so the exhaustive
    layer runs over (K, G | K) for every K with norm <= bound; a seeded
    sample of full (K, M) pairs guards the gcd reduction itself.  The
    definitional side is :meth:`DivisorDownset.definition`, read off the
    divisor positions of ``downset``, the elements of norm <= bound, and no
    :func:`csum_block` is evaluated.  The closed form is the library's
    :func:`jordan_like_local_form`, given phi(K), which is taken once per K.
    """
    elems = downset.elems

    def check_k(i):
        k, defined = elems[i], downset.definition(i)
        phi_k = jordan_totient(inst, k, 1)
        bad = []
        for g, brute in defined.items():
            m = elems[g]
            if ramanujan_sum(inst, k, m) != brute:
                bad.append(f"definition k={k.exps} m={m.exps}")
            if jordan_like_local_form(inst, k, m, phi_k) != brute:
                bad.append(f"local-form k={k.exps} m={m.exps}")
        return defined, bad

    per_k = _pmap(check_k, range(len(elems)), 1)
    failures = [ctx for _, bad in per_k for ctx in bad]
    checked = sum(len(defined) for defined, _ in per_k)
    index = downset.index
    rng = random.Random(seed)
    sample = min(2000, len(elems) ** 2)
    for _ in range(sample):
        i = rng.randrange(len(elems))
        k, m = elems[i], elems[rng.randrange(len(elems))]
        if ramanujan_sum(inst, k, m) != per_k[i][0][index[m.gcd(k)]]:
            failures.append(f"definition k={k.exps} m={m.exps}")
    checked += sample
    return _report("holder", inst, bound=bound, seed=seed, checked=checked, failures=failures)


def _trig_sums(k: int) -> np.ndarray:
    """The trigonometric sums over h coprime to k of exp(2 pi i r h / k), for
    r = 0 .. k-1: the DFT of the indicator of (Z/k)^x, the h that no prime
    factor of k divides.  The units are closed under h -> k - h, so the sums
    are real and equal at r and k - r: a real DFT gives r <= k/2, mirrored."""
    units, n, p = np.ones(k), k, 2
    while p * p <= n:
        if n % p == 0:
            units[::p] = 0
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        units[::n] = 0
    half = np.fft.rfft(units).real
    return np.concatenate([half, half[1 : (k + 1) // 2][::-1]])


def suite_oracle(inst: MonoidInstance, bound: int, downset: DivisorDownset) -> dict:
    """Divisor-sum evaluator against the trigonometric sums, integers only.

    The trigonometric sum over h coprime to k of exp(2 pi i m h / k) is the
    definitional sum; it depends on m only through m mod k, and all k
    residues come from one DFT (:func:`_trig_sums`).  Row k of csum(k, m)
    for every m <= bound is compared with it; the rows come from
    :func:`csum_block`, :func:`chunk_width` (bound) rows a call against the
    downset's elements, read once.  Those must be the integers 1..bound,
    fixed on Z by their norms, else RuntimeError.
    """
    if downset.norms != list(range(1, bound + 1)):
        raise RuntimeError(f"the downset's elements are not the integers 1..{bound}")
    elems, ms, step = downset.elems, np.arange(1, bound + 1), chunk_width(bound)
    failures = []
    for start in range(0, bound, step):
        block = csum_block(inst, elems[start : start + step], elems)
        for k, row in enumerate(block, start + 1):
            bad = np.abs(_trig_sums(k)[ms % k] - row) >= 1e-6
            failures += [f"k={k} m={m}" for m in ms[bad].tolist()]
    return _report("oracle", inst, bound=bound, checked=bound * bound, failures=failures)


def run_suite(
    inst: MonoidInstance, suite: str, bound: int = 200, trials: int = 100, seed: int = 0
) -> dict:
    """Run one suite, or for "all" every suite of SUITES that applies to ``inst``.

    The suite name, and the oracle's instance, are checked first.  Before
    any work, a suite that checks the pairs raises ValueError when n**2
    passes MAX_PAIRS, counting n by :func:`cli.refuse_pairs`.  The n
    elements of norm <= bound are then enumerated once, unless apostol runs
    alone: th1 reads the list, and th2, holder and oracle one
    :class:`DivisorDownset` over it, built here and dropped on return.  The
    suites run in one loop, each looked up in the module when it is called,
    so a ``suite_*`` rebound by attribute (the benchmark's traced mode times
    them so) takes effect.
    """
    if suite not in SUITES and suite != "all":
        raise ValueError(f"unknown suite {suite!r}")
    if suite == "oracle" and not inst.parses_integers:
        raise ValueError("the oracle suite runs on the rational-integer instance")
    if suite in ("th2", "oracle", "all"):
        refuse_pairs(inst, (bound, bound), MAX_PAIRS, lambda n, _: (
            f"--bound {bound} gives at least {n} elements, {n * n} pairs to check, "
            f"above the limit of {MAX_PAIRS}; lower --bound"))
    elems = [] if suite == "apostol" else list(inst.enumerate_up_to(bound))
    downset = None if suite in ("th1", "apostol") else DivisorDownset(inst, elems)
    names = [s for s in SUITES if suite in (s, "all") and (s != "oracle" or inst.parses_integers)]
    args = {"th1": (bound, elems), "th2": (bound, downset), "apostol": (trials, seed),
            "holder": (bound, seed, downset), "oracle": (bound, downset)}
    parts = [globals()[f"suite_{name}"](inst, *args[name]) for name in names]
    if suite != "all":
        return parts[0]
    total = sum(len(p["failures"]) for p in parts)
    return _report("all", inst, suites=parts, failures_total=total)
