"""Seeded identity and oracle suites behind the ``check`` CLI command.

Every suite returns a JSON-serializable report dict whose content is fully
determined by (instance, bound/trials, seed).
"""

from __future__ import annotations

import random

import numpy as np

from .arith import INT, ArithFn, mobius_fn, norm_fn
from .csums import (
    common_divisor_sum,
    divisibility_sums,
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

    The suites' per-item loops go through this name, with three positional
    arguments, because the benchmark's traced mode (``perfbench/traced.py``)
    rebinds ``_pmap`` to time them.
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


def suite_th2(inst: MonoidInstance, bound: int) -> dict:
    """Divisibility identity for every pair (M, N) with norms <= bound."""
    elems = list(inst.enumerate_up_to(bound))

    def row(n):
        sums = divisibility_sums(inst, elems, n)
        return [f"m={m.exps} n={n.exps}" for m, (lhs, rhs) in zip(elems, sums) if lhs != rhs]

    failures = [ctx for bad in _pmap(row, elems, 1) for ctx in bad]
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
            local = jordan_like_local_form(inst, k, g)
            if local is not None and local != brute:
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


def suite_oracle(inst: MonoidInstance, bound: int) -> dict:
    """Divisor-sum evaluator against the trigonometric sums, integers only.

    The trigonometric sum over h coprime to k of exp(2 pi i m h / k) depends
    on m only through m mod k, so it is evaluated once per residue, from the
    roots of unity, and compared with csum(k, m) for every m <= bound.
    """
    if not inst.parses_integers:
        raise ValueError("the oracle suite runs on the rational-integer instance")
    m_elts = [factor_integer(inst, m) for m in range(1, bound + 1)]

    def check_k(k):
        k_elt = factor_integer(inst, k)
        h = np.arange(k)
        roots = np.exp(2j * np.pi * h / k)
        coprime = h[np.gcd(h, k) == 1]
        trig = [complex(np.add.reduce(roots[(r * coprime) % k])) for r in range(k)]
        bad = []
        for m in range(1, bound + 1):
            c = ramanujan_sum(inst, k_elt, m_elts[m - 1])
            if abs(trig[m % k] - c) >= 1e-6:
                bad.append(f"k={k} m={m}")
        return bad

    failures = [ctx for bad in _pmap(check_k, range(1, bound + 1), 1) for ctx in bad]
    return _report("oracle", inst, bound=bound, checked=bound * bound, failures=failures)


def run_suite(
    inst: MonoidInstance,
    suite: str,
    bound: int = 200,
    trials: int = 100,
    seed: int = 0,
) -> dict:
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
        names = [s for s in SUITES if s != "oracle" or inst.parses_integers]
        parts = [run_suite(inst, s, bound, trials, seed) for s in names]
        total = sum(len(p["failures"]) for p in parts)
        return _report("all", inst, suites=parts, failures_total=total)
    raise ValueError(f"unknown suite {suite!r}")
