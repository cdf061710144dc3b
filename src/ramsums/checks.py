"""Seeded identity and oracle suites behind the ``check`` CLI command.

Every suite returns a JSON-serializable report dict whose content is fully
determined by (instance, bound/trials, seed).
"""

from __future__ import annotations

import random
from functools import cached_property

import numpy as np

from .arith import INT, ArithFn, mobius_fn, norm_fn
from .csums import (
    DivisorDownset,
    common_divisor_sum,
    divisor_sum_identity,
    first_argument_convolution,
    jordan_like_local_form,
    ramanujan_sum,
    second_argument_convolution,
)
from .fields import factor_integer
from .monoid import Element, MonoidInstance

SUITES = ("th1", "th2", "apostol", "holder", "oracle")


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


def suite_th1(inst: MonoidInstance, bound: int) -> dict:
    """Divisor-sum identity for every element with norm <= bound."""
    ks = list(inst.enumerate_up_to(bound))
    reports = _pmap(lambda k: divisor_sum_identity(inst, k), ks, 1)
    failures = [r.context for r in reports if not r.passed]
    return _report("th1", inst, bound=bound, checked=len(ks), failures=failures)


class CsumBlock:
    """csum(K, M) for every pair of ``elems``, rows K and columns M.

    ``values`` is evaluated on its first read, every pair exactly once by
    :func:`ramanujan_sum`.  By its Euler product |csum(K, M)| <= N(K), so
    the n x n array (n = len(elems)) takes the narrowest signed dtype of at
    least 16 bits that holds -max N(K): n**2 * itemsize bytes, 320 KB for Z
    at bound 400 and 8 MB at bound 2000.  A value outside that dtype raises
    OverflowError instead of wrapping.
    """

    def __init__(self, inst: MonoidInstance, elems):
        self.inst = inst
        self.elems = list(elems)
        self.norms = [inst.norm(e) for e in self.elems]

    @cached_property
    def values(self) -> np.ndarray:
        inst, elems = self.inst, self.elems
        dtype = np.promote_types(np.min_scalar_type(-max(self.norms, default=1)), np.int16)
        out = np.empty((len(elems), len(elems)), dtype)
        for i, k in enumerate(elems):
            out[i] = [ramanujan_sum(inst, k, m) for m in elems]
        return out


def suite_th2(inst: MonoidInstance, bound: int, block: CsumBlock | None = None) -> dict:
    """Divisibility identity for every pair (M, N) with norms <= bound.

    Reads the csum block over the elements of norm <= bound (``block``, or
    its own when None): n**2 * itemsize bytes, int16 up to bound 32768.
    Row N of the left side is the int64 sum of the block rows of N's
    divisors (:meth:`DivisorDownset.zeta_rows`); the right side is norm(N)
    at the columns of N's multiples, else 0.  Every nonzero difference is a
    failure, listed N-major.
    """
    if block is None:
        block = CsumBlock(inst, inst.enumerate_up_to(bound))
    elems, norms = block.elems, block.norms
    downset = DivisorDownset(inst, elems)
    multiples = [[] for _ in elems]
    for j, idx in enumerate(downset.div_idx):
        for i in idx:
            multiples[i].append(j)
    failures = []
    for i, row in enumerate(downset.zeta_rows(block.values)):
        row[multiples[i]] -= norms[i]
        failures += [f"m={elems[j].exps} n={elems[i].exps}" for j in np.flatnonzero(row)]
    return _report("th2", inst, bound=bound, checked=len(elems) ** 2, failures=failures)


def _random_divisor(rng: random.Random, root: Element) -> Element:
    pairs = []
    for aid, e in root.exps:
        d = rng.randint(0, e)
        if d:
            pairs.append((aid, d))
    return Element(tuple(pairs))


def _random_case(rng: random.Random, inst: MonoidInstance, pool: list[int]):
    n_atoms = rng.randint(1, 4)
    aids = sorted(rng.sample(pool, n_atoms))
    root = Element(tuple((aid, rng.randint(1, 3)) for aid in aids))
    k = _random_divisor(rng, root)
    n = _random_divisor(rng, root)
    divs = inst.divisors(root)
    tables = [{d: rng.randint(-9, 9) for d in divs} for _ in range(3)]
    return root, k, n, tables


def suite_apostol(inst: MonoidInstance, trials: int, seed: int) -> dict:
    """Both bilinear convolution identities on seeded random integer tuples."""
    rng = random.Random(seed)
    inst.ensure_atom_count(8)
    pool = [a.id for a in inst.atoms[:8]]
    cases = [_random_case(rng, inst, pool) for _ in range(trials)]

    def run(case):
        root, k, n, (tf, tg, th) = case
        f = ArithFn(tf.__getitem__, INT, "f")
        g = ArithFn(tg.__getitem__, INT, "g")
        h = ArithFn(th.__getitem__, INT, "h")
        ra = first_argument_convolution(inst, f, g, h, k, n)
        rb = second_argument_convolution(inst, f, g, h, k, n)
        if ra.passed and rb.passed:
            return None
        return f"root={root.exps} k={k.exps} n={n.exps}"

    failures = [ctx for ctx in _pmap(run, cases, 1) if ctx is not None]
    return _report(
        "apostol", inst, trials=trials, seed=seed, checked=2 * trials, failures=failures
    )


def suite_holder(inst: MonoidInstance, bound: int, seed: int) -> dict:
    """Fast evaluator against the definitional sum and the local closed form.

    csum(K, M) depends on M only through G = gcd(M, K), so the exhaustive
    layer runs over (K, G | K) for every K with norm <= bound; a seeded
    sample of full (K, M) pairs guards the gcd reduction itself.
    """
    elems = list(inst.enumerate_up_to(bound))
    norm, mu = norm_fn(inst), mobius_fn()

    def check_k(k):
        bad = []
        divs = inst.divisors(k)
        for g in divs:
            brute = common_divisor_sum(inst, norm, mu, g, k)
            fast = ramanujan_sum(inst, k, g)
            if fast != brute:
                bad.append(f"definition k={k.exps} m={g.exps}")
            if jordan_like_local_form(inst, k, g) != brute:
                bad.append(f"local-form k={k.exps} m={g.exps}")
        return len(divs), bad

    per_k = _pmap(check_k, elems, 1)
    failures = [ctx for _, bad in per_k for ctx in bad]
    checked = sum(n for n, _ in per_k)
    rng = random.Random(seed)
    sample = min(2000, len(elems) ** 2)
    for _ in range(sample):
        k = elems[rng.randrange(len(elems))]
        m = elems[rng.randrange(len(elems))]
        if ramanujan_sum(inst, k, m) != common_divisor_sum(inst, norm, mu, m, k):
            failures.append(f"definition k={k.exps} m={m.exps}")
    checked += sample
    return _report("holder", inst, bound=bound, seed=seed, checked=checked, failures=failures)


def _trig_sums(k: int) -> np.ndarray:
    """The trigonometric sums over h coprime to k of exp(2 pi i r h / k), for
    r = 0 .. k-1: k times the inverse DFT of the indicator of (Z/k)^x."""
    h = np.arange(k)
    return k * np.fft.ifft(np.gcd(h, k) == 1)


def suite_oracle(inst: MonoidInstance, bound: int, block: CsumBlock | None = None) -> dict:
    """Divisor-sum evaluator against the trigonometric sums, integers only.

    The trigonometric sum over h coprime to k of exp(2 pi i m h / k) is the
    definitional sum; it depends on m only through m mod k, and all k
    residues come from one DFT (:func:`_trig_sums`).  Row k of the csum
    block (``block``, or its own when None: bound**2 * itemsize bytes, int16
    up to bound 32768) is compared with it for every m <= bound.  The
    block's elements must be the integers 1..bound, else RuntimeError.
    """
    if not inst.parses_integers:
        raise ValueError("the oracle suite runs on the rational-integer instance")
    if block is None:
        block = CsumBlock(inst, inst.enumerate_up_to(bound))
    if block.elems != [factor_integer(inst, m) for m in range(1, bound + 1)]:
        raise RuntimeError(f"the csum block's rows are not the integers 1..{bound}")
    ms = np.arange(1, bound + 1)
    failures = []
    for k, row in enumerate(block.values, 1):
        bad = np.abs(_trig_sums(k)[ms % k] - row) >= 1e-6
        failures += [f"k={k} m={m}" for m in ms[bad].tolist()]
    return _report("oracle", inst, bound=bound, checked=bound * bound, failures=failures)


def run_suite(
    inst: MonoidInstance,
    suite: str,
    bound: int = 200,
    trials: int = 100,
    seed: int = 0,
) -> dict:
    """Run one suite, or every suite that applies to ``inst`` for "all".

    "all" builds one csum block over the elements of norm <= bound
    (:class:`CsumBlock`: n**2 * itemsize bytes, int16 up to bound 32768),
    evaluated inside th2 and read again by oracle; it is dropped on return.
    """
    if suite == "th1":
        return suite_th1(inst, bound)
    if suite == "th2":
        return suite_th2(inst, bound)
    if suite == "apostol":
        return suite_apostol(inst, trials, seed)
    if suite == "holder":
        return suite_holder(inst, bound, seed)
    if suite == "oracle":
        return suite_oracle(inst, bound)
    if suite == "all":
        block = CsumBlock(inst, inst.enumerate_up_to(bound))
        parts = [
            suite_th1(inst, bound),
            suite_th2(inst, bound, block),
            suite_apostol(inst, trials, seed),
            suite_holder(inst, bound, seed),
        ]
        if inst.parses_integers:
            parts.append(suite_oracle(inst, bound, block))
        total = sum(len(p["failures"]) for p in parts)
        return _report("all", inst, suites=parts, failures_total=total)
    raise ValueError(f"unknown suite {suite!r}")
