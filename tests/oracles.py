"""Independent reference implementations the tests check the library against.

Everything here is deliberately written from the definitions, without reusing
the library's evaluation strategies: divisor sums are brute-force over the
whole divisor set, trigonometric sums use complex exponentials directly,
ideal counts come from the quadratic-character convolution or from lattice
points, fundamental units come from a brute-force search over v, and class
numbers from Dirichlet's finite formulas with a character built on sympy's
Jacobi symbol.  The Dirichlet-algebra references walk ``divisors`` lists of
Elements and subtract with ``Element.sub``, one sum per sub-root, adding
their terms in ``divisors`` order.
"""

import cmath
import math
from math import isqrt

from ramsums import mobius


def csum_brute(inst, k, m):
    """Definitional value: sum of norm(D) * mu(K - D) over all D <= gcd(M, K)."""
    total = 0
    for d in inst.divisors(k.gcd(m)):
        total += inst.norm(d) * mobius(k.sub(d))
    return total


def element_convolve(inst, f, g, e):
    """(f * g)(e) over divisors(e), complements read off the reversed list."""
    divs = inst.divisors(e)
    return sum(f(d) * g(c) for d, c in zip(divs, reversed(divs)))


def element_inverse(inst, f, root, unit):
    """{D: g(D)} for D <= root with (f * g)(D) = delta(D), solved in divisors
    order; g(0) = unit / f(0), the inverse in a field (rational, float or
    complex values)."""
    divs = inst.divisors(root)
    inv0 = unit / f(divs[0])
    values = {divs[0]: inv0}
    for a in divs[1:]:
        acc = None
        below = inst.divisors(a)
        for d, c in zip(below[1:], reversed(below[:-1])):
            term = f(d) * values[c]
            acc = term if acc is None else acc + term
        values[a] = -inv0 * acc
    return values


def element_common_divisor_sum(inst, f, g, m, k):
    """Sum of f(D) g(K - D) over D below both M and K."""
    return sum(f(d) * g(k.sub(d)) for d in inst.divisors(m.gcd(k)))


def element_first_argument(inst, f, g, h, k, n, unit):
    """(lhs, rhs) of the first-argument convolution identity."""
    divs = inst.divisors(n)
    lhs = sum(
        element_common_divisor_sum(inst, f, g, d, k) * h(c) for d, c in zip(divs, reversed(divs))
    )
    one = lambda e: unit
    rhs = sum(
        f(d) * g(k.sub(d)) * element_convolve(inst, one, h, n.sub(d))
        for d in inst.divisors(n.gcd(k))
    )
    return lhs, rhs


def element_second_argument(inst, f, g, h, m, n):
    """(lhs, rhs) of the second-argument convolution identity."""
    divs = inst.divisors(n)
    lhs = sum(
        element_common_divisor_sum(inst, f, g, m, d) * h(c) for d, c in zip(divs, reversed(divs))
    )
    rhs = sum(f(d) * element_convolve(inst, g, h, n.sub(d)) for d in inst.divisors(n.gcd(m)))
    return lhs, rhs


def trig_csum(k: int, m: int) -> complex:
    """Classical trigonometric sum over residues coprime to k."""
    return sum(
        cmath.exp(2j * math.pi * m * h / k) for h in range(k) if math.gcd(h, k) == 1
    )


def chi4(n: int) -> int:
    """The nontrivial character mod 4."""
    if n % 2 == 0:
        return 0
    return 1 if n % 4 == 1 else -1


def gaussian_ideal_counts(limit: int) -> list[int]:
    """counts[n] = number of ideals of Z[i] with norm n, via sum of chi4 over
    divisors (the L-series convolution), for n <= limit."""
    counts = [0] * (limit + 1)
    for d in range(1, limit + 1):
        c = chi4(d)
        if c:
            for n in range(d, limit + 1, d):
                counts[n] += c
    return counts


def kronecker_counts(disc: int, limit: int) -> list[int]:
    """Ideal counts of the quadratic field of discriminant disc, from the
    factorization of its zeta function into zeta times the L-series of the
    discriminant character."""
    from ramsums import kronecker

    counts = [0] * (limit + 1)
    for d in range(1, limit + 1):
        c = kronecker(disc, d)
        if c:
            for n in range(d, limit + 1, d):
                counts[n] += c
    return counts


def lattice_ideal_count(x: int, disc: int) -> int:
    """Number of ideals of norm <= x in Q(i) (disc -4) or Q(sqrt(-3))
    (disc -3), counted as lattice points.

    Both fields have class number 1, so every ideal is principal, with one
    generator per unit (4 and 6 of them); a generator a + b*w has norm
    a*a + b*b, or a*a + a*b + b*b.  Each row a is counted with isqrt.
    """
    points = 0
    if disc == -4:
        r = isqrt(x)
        for a in range(-r, r + 1):
            points += 2 * isqrt(x - a * a) + 1
        units = 4
    elif disc == -3:
        # a*a + a*b + b*b <= x  iff  (2*b + a)**2 <= 4*x - 3*a*a
        r = isqrt(4 * x // 3)
        for a in range(-r, r + 1):
            t = isqrt(4 * x - 3 * a * a)
            # t' = 2*b + a runs over [-t, t] with the parity of a
            points += (t + 1) // 2 * 2 if a % 2 else t // 2 * 2 + 1
        units = 6
    else:
        raise ValueError(f"no lattice oracle for discriminant {disc}")
    points -= 1  # the origin generates no ideal
    assert points % units == 0
    return points // units


def euler_criterion(a: int, p: int) -> int:
    """Quadratic-residue symbol mod an odd prime via a**((p-1)/2)."""
    r = pow(a % p, (p - 1) // 2, p)
    if r == 0:
        return 0
    return 1 if r == 1 else -1


def quadratic_character(disc: int, n: int) -> int:
    """Kronecker symbol (disc|n) for n >= 1: the rule for 2 on the powers of
    2 in n, and sympy's integer Jacobi symbol on the odd part."""
    try:
        from sympy.external.gmpy import jacobi
    except ImportError:  # sympy < 1.13 kept the integer version here
        from sympy.ntheory import jacobi_symbol as jacobi

    value = 1
    while n % 2 == 0:
        n //= 2
        value *= 0 if disc % 2 == 0 else 1 if disc % 8 in (1, 7) else -1
    return value * jacobi(disc % n, n)


def class_number_dirichlet(disc: int) -> int:
    """Class number of the imaginary quadratic field of fundamental
    discriminant disc by Dirichlet's formula
    h = -(w / (2|disc|)) * sum_{a < |disc|} chi(a) * a."""
    w = 6 if disc == -3 else 4 if disc == -4 else 2
    total = sum(quadratic_character(disc, a) * a for a in range(1, -disc))
    h, r = divmod(w * total, 2 * disc)
    assert r == 0, disc
    return h


def l_one_real(disc: int) -> float:
    """L(1, chi) of the real quadratic field of fundamental discriminant disc,
    by the finite formula -disc**(-1/2) * sum_{a < disc} chi(a) log sin(pi a / disc)."""
    terms = (
        quadratic_character(disc, a) * math.log(math.sin(math.pi * a / disc))
        for a in range(1, disc)
    )
    return -math.fsum(terms) / math.sqrt(disc)


def pell_unit(d: int) -> tuple[int, int, int, int]:
    """Fundamental unit of the maximal order of Q(sqrt(d)), d > 1 squarefree,
    as (u, v, denom, eta) by trying v = 1, 2, ... in turn.

    Units are written (u + v*sqrt(d)) / 2 when d = 1 mod 4 and
    u + v*sqrt(d) otherwise; the smallest v >= 1 with a square
    u*u = d*v*v - eta*denom**2 (the smaller u first) gives the unit.  It is
    reduced to denom 1 when u and v are even.
    """
    denom = 2 if d % 4 == 1 else 1
    v = 1
    while True:
        for eta in (-1, 1):
            uu = d * v * v + eta * denom * denom
            u = isqrt(uu)
            if u * u == uu:
                if u % 2 == 0 and v % 2 == 0 and denom == 2:
                    return (u // 2, v // 2, 1, eta)
                return (u, v, denom, eta)
        v += 1
