"""Seeded identity and oracle suites behind the ``check`` CLI command.

Every suite returns a JSON-serializable report dict whose content is fully
determined by (instance, bound/trials, seed); worker count only affects how
trials are scheduled, never the result.
"""

from __future__ import annotations

import cmath
import math
import os
import random
from concurrent.futures import ThreadPoolExecutor

from .arith import INT, ArithFn, mobius_fn, norm_fn
from .csums import (
    common_divisor_sum,
    divisibility_identity,
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
    """[fn(item) for item in items], on a pool of at most one thread per CPU."""
    workers = min(workers or 1, os.cpu_count() or 1)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def suite_th1(inst: MonoidInstance, bound: int, workers: int = 1) -> dict:
    """Divisor-sum identity for every element with norm <= bound."""
    ks = list(inst.enumerate_up_to(bound))
    reports = _pmap(lambda k: divisor_sum_identity(inst, k), ks, workers)
    failures = [r.context for r in reports if not r.passed]
    return {
        "suite": "th1",
        "instance": inst.name,
        "bound": bound,
        "checked": len(ks),
        "failures": failures,
    }


def suite_th2(inst: MonoidInstance, bound: int, workers: int = 1) -> dict:
    """Divisibility identity for every pair (M, N) with norms <= bound."""
    elems = list(inst.enumerate_up_to(bound))

    def row(n):
        bad = []
        for m in elems:
            r = divisibility_identity(inst, m, n)
            if not r.passed:
                bad.append(r.context)
        return bad

    failures = [ctx for bad in _pmap(row, elems, workers) for ctx in bad]
    return {
        "suite": "th2",
        "instance": inst.name,
        "bound": bound,
        "checked": len(elems) ** 2,
        "failures": failures,
    }


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


def suite_apostol(inst: MonoidInstance, trials: int, seed: int, workers: int = 1) -> dict:
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

    failures = [ctx for ctx in _pmap(run, cases, workers) if ctx is not None]
    return {
        "suite": "apostol",
        "instance": inst.name,
        "trials": trials,
        "seed": seed,
        "checked": 2 * trials,
        "failures": failures,
    }


def suite_holder(inst: MonoidInstance, bound: int, seed: int, workers: int = 1) -> dict:
    """Fast evaluator against the definitional sum and the local closed form.

    csum(K, M) depends on M only through G = gcd(M, K), so the exhaustive
    layer runs over (K, G | K) for every K with norm <= bound; a seeded
    sample of full (K, M) pairs guards the gcd reduction itself.
    """
    elems = list(inst.enumerate_up_to(bound))
    norm, mu = norm_fn(inst), mobius_fn()

    def check_k(k):
        bad = []
        for g in inst.divisors(k):
            brute = common_divisor_sum(inst, norm, mu, g, k)
            fast = ramanujan_sum(inst, k, g)
            if fast != brute:
                bad.append(f"definition k={k.exps} m={g.exps}")
            local = jordan_like_local_form(inst, k, g)
            if local is not None and local != brute:
                bad.append(f"local-form k={k.exps} m={g.exps}")
        return bad

    failures = [ctx for bad in _pmap(check_k, elems, workers) for ctx in bad]
    checked = sum(len(inst.divisors(k)) for k in elems)
    rng = random.Random(seed)
    sample = min(2000, len(elems) ** 2)
    for _ in range(sample):
        k = elems[rng.randrange(len(elems))]
        m = elems[rng.randrange(len(elems))]
        if ramanujan_sum(inst, k, m) != common_divisor_sum(inst, norm, mu, m, k):
            failures.append(f"definition k={k.exps} m={m.exps}")
    checked += sample
    return {
        "suite": "holder",
        "instance": inst.name,
        "bound": bound,
        "seed": seed,
        "checked": checked,
        "failures": failures,
    }


def suite_oracle(inst: MonoidInstance, bound: int, workers: int = 1) -> dict:
    """Divisor-sum evaluator against the trigonometric sums, integers only."""
    if not inst.parses_integers:
        raise ValueError("the oracle suite runs on the rational-integer instance")
    m_elts = [factor_integer(inst, m) for m in range(1, bound + 1)]

    def check_k(k):
        bad = []
        k_elt = factor_integer(inst, k)
        roots = [cmath.exp(2j * math.pi * j / k) for j in range(k)]
        coprime = [h for h in range(k) if math.gcd(h, k) == 1]
        for m in range(1, bound + 1):
            z = sum(roots[(m * h) % k] for h in coprime)
            c = ramanujan_sum(inst, k_elt, m_elts[m - 1])
            if abs(z - c) >= 1e-6:
                bad.append(f"k={k} m={m}")
        return bad

    failures = [ctx for bad in _pmap(check_k, range(1, bound + 1), workers) for ctx in bad]
    return {
        "suite": "oracle",
        "instance": inst.name,
        "bound": bound,
        "checked": bound * bound,
        "failures": failures,
    }


def run_suite(
    inst: MonoidInstance,
    suite: str,
    bound: int = 200,
    trials: int = 100,
    seed: int = 0,
    workers: int = 1,
) -> dict:
    if suite == "th1":
        return suite_th1(inst, bound, workers)
    if suite == "th2":
        return suite_th2(inst, bound, workers)
    if suite == "apostol":
        return suite_apostol(inst, trials, seed, workers)
    if suite == "holder":
        return suite_holder(inst, bound, seed, workers)
    if suite == "oracle":
        return suite_oracle(inst, bound, workers)
    if suite == "all":
        names = [s for s in SUITES if s != "oracle" or inst.parses_integers]
        parts = [run_suite(inst, s, bound, trials, seed, workers) for s in names]
        return {
            "suite": "all",
            "instance": inst.name,
            "suites": parts,
            "failures_total": sum(len(p["failures"]) for p in parts),
        }
    raise ValueError(f"unknown suite {suite!r}")
