"""Reference values for the benchmark, computed without importing ramsums.

* ``ideal_count(x, disc)``: the number of ideals of norm <= x in the
  quadratic field of fundamental discriminant ``disc``.  The ideal zeta
  function factors as zeta(s) * L(s, chi_disc), so the count is
  sum_{d <= x} chi(d) * floor(x / d), evaluated exactly by the Dirichlet
  hyperbola method in O(sqrt(x)).  ``disc = 1`` stands for Z, where the
  count is x itself.
* ``double_sum(x, y)``: S(x, y) over Z, the sum of the Ramanujan sums
  c_k(m) over m <= x and k <= y, as
  sum_{k <= y} sum_{d | k} d * mu(k / d) * floor(x / d) in plain integers.
* ``divisor_pair_count(bound, disc)``: the number of pairs (K, D) with D
  dividing K and norm(K) <= bound, which is the exhaustive part of the
  ``holder`` check suite.

``self_test()`` compares the first two against brute-force enumeration:
lattice points of the reduced binary quadratic forms for the ideal counts,
and trigonometric sums for S(x, y).  Run it with
``python3 perfbench/oracles.py``.
"""

from __future__ import annotations

import math
from math import isqrt


def mobius(n: int) -> int:
    """mu(n) by trial division."""
    sign, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if n > 1 else sign


def _prime_character(disc: int, p: int) -> int:
    """chi_disc(p) for a prime p: 0 when p divides disc; for odd p, Euler's
    criterion on disc mod p; for p = 2, the class of disc mod 8."""
    if disc % p == 0:
        return 0
    if p == 2:
        return 1 if disc % 8 == 1 else -1
    return 1 if pow(disc % p, (p - 1) // 2, p) == 1 else -1


def character_table(disc: int) -> list[int]:
    """chi_disc(n) for n = 0 .. |disc| - 1, one full period."""
    period = abs(disc)
    table = [0] * period
    for n in range(1, period):
        value, m, p = 1, n, 2
        while m > 1:
            if p * p > m:
                p = m
            while m % p == 0:
                value *= _prime_character(disc, p)
                m //= p
            p += 1
        table[n] = value
    return table


def field_discriminant(spec: str) -> int:
    """Fundamental discriminant of a CLI instance spec: 'z' -> 1, 'q:d' ->
    d when d = 1 mod 4, else 4d."""
    if spec == "z":
        return 1
    d = int(spec.split(":", 1)[1])
    return d if d % 4 == 1 else 4 * d


def ideal_count(x: int, disc: int) -> int:
    """sum_{d <= x} chi(d) floor(x / d) by the hyperbola method; x over Z."""
    if disc == 1 or x < 1:
        return max(x, 0)
    chi = character_table(disc)
    period = len(chi)
    prefix = [0]
    for v in chi[1:] + chi[:1]:  # chi(1), ..., chi(period)
        prefix.append(prefix[-1] + v)
    full = prefix[period]

    def chi_sum(n: int) -> int:
        q, r = divmod(n, period)
        return q * full + prefix[r]

    s = isqrt(x)
    total = sum(chi[d % period] * (x // d) for d in range(1, s + 1))
    total += sum(chi_sum(x // m) for m in range(1, s + 1))
    return total - chi_sum(s) * s


def double_sum(x: int, y: int) -> int:
    """S(x, y) = sum_{k <= y} sum_{d | k} d mu(k / d) floor(x / d)."""
    return sum(
        d * mobius(k // d) * (x // d)
        for k in range(1, y + 1)
        for d in range(1, k + 1)
        if k % d == 0
    )


def divisor_pair_count(bound: int, disc: int) -> int:
    """Pairs (K, D) with D | K and norm(K) <= bound: writing K = D + E, this
    is sum over n <= bound of a(n) * count(bound // n), with a(n) the number
    of ideals of norm exactly n."""
    counts = [ideal_count(n, disc) for n in range(bound + 1)]
    return sum((counts[n] - counts[n - 1]) * counts[bound // n] for n in range(1, bound + 1))


# -- brute-force self-test --------------------------------------------------

#: Reduced forms (a, b, c) of discriminant b^2 - 4ac, one per ideal class,
#: and the number of units, for the imaginary fields the self-test covers.
_FORMS = {
    -4: ([(1, 0, 1)], 4),
    -23: ([(1, 1, 6), (2, 1, 3), (2, -1, 3)], 2),
}


def _lattice_counts(disc: int, limit: int) -> list[int]:
    """Ideal counts for x = 0 .. limit from the representation numbers of
    the reduced forms: ideals of norm n <-> nonzero representations of n by
    the class forms, divided by the number of units."""
    forms, units = _FORMS[disc]
    reps = [0] * (limit + 1)
    r = 2 * isqrt(limit) + 4
    for a, b, c in forms:
        for u in range(-r, r + 1):
            for v in range(-r, r + 1):
                n = a * u * u + b * u * v + c * v * v
                if 0 < n <= limit:
                    reps[n] += 1
    out, running = [], 0
    for n in range(limit + 1):
        if reps[n] % units:
            raise AssertionError(f"representations of {n} not divisible by {units}")
        running += reps[n] // units
        out.append(running)
    return out


def _ramanujan_trig(k: int, m: int) -> int:
    total = sum(math.cos(2 * math.pi * h * m / k) for h in range(1, k + 1) if math.gcd(h, k) == 1)
    return round(total)


def self_test() -> None:
    """Raise AssertionError when an oracle disagrees with brute force."""
    for disc in _FORMS:
        brute = _lattice_counts(disc, 400)
        for x in range(401):
            if ideal_count(x, disc) != brute[x]:
                raise AssertionError(f"ideal_count({x}, {disc}) != {brute[x]}")
    for x in range(401):
        if ideal_count(x, 1) != x:
            raise AssertionError(f"ideal_count({x}, 1) != {x}")
    trig = [[_ramanujan_trig(k, m) for m in range(61)] for k in range(13)]
    for y in range(1, 13):
        for x in range(1, 61):
            brute = sum(trig[k][m] for k in range(1, y + 1) for m in range(1, x + 1))
            if double_sum(x, y) != brute:
                raise AssertionError(f"double_sum({x}, {y}) != {brute}")
    for disc in (1, -23):
        if disc == 1:
            per_norm = [0] + [1] * 200
        else:
            lattice = _lattice_counts(disc, 200)
            per_norm = [0] + [lattice[n] - lattice[n - 1] for n in range(1, 201)]
        for bound in (1, 2, 17, 60, 200):
            brute = sum(
                per_norm[d] * per_norm[n // d]
                for n in range(1, bound + 1)
                for d in range(1, n + 1)
                if n % d == 0
            )
            if divisor_pair_count(bound, disc) != brute:
                raise AssertionError(f"divisor_pair_count({bound}, {disc}) != {brute}")


if __name__ == "__main__":
    self_test()
    print("oracle self-test passed")
