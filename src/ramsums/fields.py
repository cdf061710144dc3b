"""Built-in monoid instances: rational integers and quadratic fields.

The rational-integer instance has the primes as atoms.  A quadratic field
Q(sqrt(d)) has the prime ideals of its maximal order as atoms, produced by
splitting each rational prime p according to the Kronecker symbol of the
field discriminant: +1 gives two ideals of norm p, -1 one ideal of norm
p**2, and 0 (p ramified) one ideal of norm p.

The module also carries the invariants feeding the residue of the zeta
function at s = 1: class numbers of imaginary fields by counting the
reduced binary quadratic forms with b >= 0, regulators of real fields from
the fundamental unit, read off the continued fraction of the generator of
the maximal order, and the round trip that recovers the class number from
ideal counts.
"""

from __future__ import annotations

import math
import re
from math import isqrt
from typing import TYPE_CHECKING, NamedTuple

from .monoid import MAX_HYPERBOLA, ZERO, DensityMeta, Element, LabelCodec, MonoidInstance

if TYPE_CHECKING:
    import numpy as np


class InconclusiveEstimateError(ValueError):
    """A numeric estimate did not land close enough to an integer."""


class QuadraticFieldDescriptor(NamedTuple):
    d: int                      # squarefree, not 0 or 1
    discriminant: int           # d if d = 1 mod 4, else 4d
    signature: tuple[int, int]  # (r1, r2)

    @property
    def degree(self) -> int:
        return 2


class _FieldInvariants(NamedTuple):
    r1: int
    r2: int
    regulator: float
    h: int | None               # None until estimated, for real quadratic fields
    roots_of_unity: int
    abs_disc: int


class FieldInvariants(_FieldInvariants):
    """Inputs of the residue formula 2**r1 * (2*pi)**r2 * R * h / (W * sqrt(D))."""

    __slots__ = ()
    _make = classmethod(lambda cls, iterable: cls(*iterable))  # so _replace checks too

    def __new__(cls, r1, r2, regulator, h, roots_of_unity, abs_disc):
        if roots_of_unity not in (2, 4, 6):
            raise ValueError(f"bad root-of-unity count {roots_of_unity}")
        if h is not None and h < 1:
            raise ValueError(f"class number must be >= 1, got {h}")
        if not regulator > 0:
            raise ValueError("regulator must be positive")
        return super().__new__(cls, r1, r2, regulator, h, roots_of_unity, abs_disc)


class SplittingRecord(NamedTuple):
    p: int
    kind: str                           # "split" | "inert" | "ramified"
    atoms: tuple[tuple[int, str], ...]  # (norm, label)


def sieve_primes(n: int) -> list[int]:
    """Primes <= n, ascending."""
    return _prime_array(n).tolist()


def _prime_array(n: int) -> np.ndarray:
    """Primes <= n, ascending, as an int64 array."""
    import numpy as np
    if n < 2:
        return np.zeros(0, dtype=np.int64)
    mask = np.ones(n + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, isqrt(n) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.flatnonzero(mask)


def _prime_label(norm: int, tag: int) -> str:
    return f"p{norm}"


def _parse_prime_label(label: str) -> tuple[int, int] | None:
    m = re.fullmatch(r"p(\d+)", label)
    return (int(m.group(1)), 0) if m else None


def rational_integers() -> MonoidInstance:
    """The positive integers under multiplication; atoms are the primes."""

    def source(lo, hi):
        import numpy as np
        primes = _prime_array(hi)
        primes = primes[primes > lo]
        return primes, np.zeros(len(primes), dtype=np.int8)

    return MonoidInstance(
        "Z",
        source,
        LabelCodec(_prime_label, _parse_prime_label),
        DensityMeta(c=1.0, alpha=0.0),
        parse_int=True,
        counter=lambda b: b,
    )


def factor_integer(inst: MonoidInstance, n: int) -> Element:
    """Element of the rational-integer instance with norm n (n >= 1)."""
    if not inst.parses_integers:
        raise ValueError("integer factorization needs the rational-integer instance")
    n = int(n)
    if n < 1:
        raise ValueError(f"positive integer required, got {n}")
    if n == 1:
        return ZERO
    exps: dict[int, int] = {}
    rem, aid = n, 0
    # the primes to 2**16 first: a smooth n then never needs the table
    # near sqrt(n), only near the square root of what is left
    for bound in (min(isqrt(n), 2**16), None):
        inst.extend(isqrt(rem) + 1 if bound is None else bound)
        norms = inst.norms
        while aid < len(norms) and norms[aid] ** 2 <= rem:
            while rem % norms[aid] == 0:
                exps[aid] = exps.get(aid, 0) + 1
                rem //= norms[aid]
            aid += 1
    if rem > 1:  # a prime
        aid = inst.atom_id(rem)
        exps[aid] = exps.get(aid, 0) + 1
    return Element.of(exps)


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n), total over all integer pairs."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -1
    twos = 0
    while n % 2 == 0:
        n //= 2
        twos += 1
    if twos:
        if a % 2 == 0:
            return 0
        if twos % 2 and a % 8 in (3, 5):
            sign = -sign
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


#: Atom tags of the prime ideals of a quadratic field, by splitting kind.
#: Only the two ideals above a split prime share a norm, and their tags
#: order them as their labels do.
INERT, RAMIFIED, SPLIT_A, SPLIT_B = 0, 1, 2, 3
_SUFFIX = {INERT: "", RAMIFIED: "r", SPLIT_A: "a", SPLIT_B: "b"}
_TAG = {suffix: tag for tag, suffix in _SUFFIX.items()}
#: The splitting law: (disc|p) -> (kind, tags of the prime ideals above p).
_SPLITTING = {
    0: ("ramified", (RAMIFIED,)), 1: ("split", (SPLIT_A, SPLIT_B)), -1: ("inert", (INERT,))
}

#: Ceiling on |d| in :func:`quadratic_field`: trial division to sqrt(|d|)
#: takes 0.14 s at 10**12 (Python 3.11, x86-64), and 4|d| fits int64.
MAX_ABS_D = 10**12

#: Ceiling on |disc| in :func:`class_number_imaginary` and
#: :func:`regulator_real`, checked before their loops start.  The class-number
#: loop sets it: its time is linear in |disc|, 0.15-0.18 s at 10**7 and
#: 1.3-1.8 s at 10**8.  The regulator's loop runs on small integers: the
#: slowest of 484 fields near 10**8 took 0.07 s, and d = 1000000009 takes
#: 0.5 s (Python 3.11, x86-64).
MAX_INVARIANT_DISC = 10**8

#: Largest table length min(|disc|, x + 1) and loop length isqrt(x) at which
#: :func:`_ideal_counter` counts in Python lists instead of numpy arrays, until
#: one count on the instance passes it.
LIST_COUNT_CAP = 2**14


def split_prime(disc: int, p: int) -> SplittingRecord:
    """Behavior of the rational prime p in the field of discriminant disc."""
    kind, tags = _SPLITTING[kronecker(disc, p)]
    norm = p * p if kind == "inert" else p
    return SplittingRecord(p, kind, tuple((norm, _ideal_label(norm, tag)) for tag in tags))


def _character_table(disc: int, n: int) -> np.ndarray:
    """Kronecker symbols (disc|r) for 0 <= r < n, as int8.

    n -> (disc|n) is completely multiplicative, so it is evaluated at the
    primes below n alone and spread over the multiples of their powers.
    """
    import numpy as np
    chi = np.ones(n, dtype=np.int8)
    chi[0] = 0
    for p in _prime_array(n - 1).tolist():
        c, pk = kronecker(disc, p), p
        while c != 1 and pk < n:
            chi[pk::pk] *= c
            pk *= p
    return chi


def _ideal_counter(disc: int):
    """Exact ideal count of the quadratic field of discriminant disc, as a
    function of an integer x >= 1, in O(sqrt(x)) time and memory once chi
    is tabulated.

    zeta_K = zeta * L(s, chi) with chi = (disc|.), so count(x) is the sum of
    chi(d) * floor(x/d) over d <= x.  The Dirichlet hyperbola method splits
    it at s = isqrt(x):

        sum_{d<=s} chi(d) floor(x/d) + sum_{m<=s} S(floor(x/m)) - S(s) s,

    where S(t) = chi(1) + ... + chi(t) = S(t mod |disc|), as chi is a
    non-principal character mod |disc|.  chi and S are tabulated on the
    residues below n = min(|disc|, x + 1), once for the largest x asked.

    The tables sit in one slot.  While every count so far has had n and s
    both at most LIST_COUNT_CAP = 2**14, they are Python lists (chi by
    :func:`kronecker` on each residue) and the sums run in Python ints, so
    counting on a small field never imports numpy.  The first count above
    the cap replaces them by numpy arrays, and from then on every count on
    the instance sums over the arrays, as numpy is loaded by then.  In a
    fresh process, numpy's import included, the list way took
    0.014-0.018 s against 0.056-0.089 s at n = s = 2**14 (2-core x86-64,
    Python 3.11, numpy 2.4).  Its kronecker table falls behind between
    n = 2**15 and 2**16, its loops only past s = 2**16.
    """
    period = abs(disc)
    tables = [([], [])]  # chi[r], S[r] for r < len: lists, then numpy arrays

    def count(x: int) -> int:
        if x > MAX_HYPERBOLA:
            raise ValueError(f"x={x} exceeds the ideal-count limit {MAX_HYPERBOLA}")
        n, s = min(period, x + 1), isqrt(x)
        chi, S = tables[0]
        if type(chi) is list and max(n, s) <= LIST_COUNT_CAP:
            if len(chi) < n:
                from itertools import accumulate
                chi = [kronecker(disc, r) for r in range(n)]
                S = list(accumulate(chi))  # chi(0) = 0: S[r] sums chi over 1..r
                tables[0] = (chi, S)
            head = sum([chi[d % period] * (x // d) for d in range(1, s + 1)])
            return head + sum([S[x // d % period] for d in range(1, s + 1)]) - S[s % period] * s
        import numpy as np
        if type(chi) is list or len(chi) < n:
            chi = _character_table(disc, n)
            S = np.cumsum(chi, dtype=np.int64)  # chi(0) = 0: S[r] sums chi over 1..r
            tables[0] = (chi, S)
        d = np.arange(1, s + 1, dtype=np.int64)
        q = x // d
        head = int((chi[d % period] * q).sum())
        return head + int(S[q % period].sum()) - int(S[s % period]) * s

    return count


def _ideal_label(norm: int, tag: int) -> str:
    return f"p{isqrt(norm) if tag == INERT else norm}{_SUFFIX[tag]}"


def _is_squarefree(n: int) -> bool:
    if n % 4 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % (f * f) == 0:
            return False
        f += 2
    return True


def quadratic_field(d: int) -> MonoidInstance:
    """Ideal monoid of the maximal order of Q(sqrt(d)), d squarefree."""
    d = int(d)
    if d in (0, 1):
        raise ValueError("d must not be 0 or 1")
    if abs(d) > MAX_ABS_D:
        raise ValueError(f"|d| = {abs(d)} exceeds the limit {MAX_ABS_D}")
    if not _is_squarefree(abs(d)):
        raise ValueError(f"d must be squarefree, got {d}")
    disc = d if d % 4 == 1 else 4 * d
    desc = QuadraticFieldDescriptor(d, disc, (2, 0) if d > 0 else (0, 1))

    def source(lo, hi):
        import numpy as np
        primes = _prime_array(hi)
        # norm p for ramified and split primes, p*p for inert ones
        primes = primes[(primes > lo) | (primes <= isqrt(hi))]
        chi = _character_table(disc, min(abs(disc), hi + 1))[primes % abs(disc)]
        split = primes[chi == 1]
        parts = (primes[chi == 0], split, split, primes[chi == -1] ** 2)
        norms = np.concatenate(parts)
        tags = np.repeat(
            np.array([RAMIFIED, SPLIT_A, SPLIT_B, INERT], dtype=np.int8), [len(a) for a in parts]
        )
        keep = (norms > lo) & (norms <= hi)
        return norms[keep], tags[keep]

    def parse(label):
        m = re.fullmatch(r"p(\d+)([abr]?)", label)
        if m is None:
            return None
        p, tag = int(m.group(1)), _TAG[m.group(2)]
        if tag not in _SPLITTING[kronecker(disc, p)][1]:
            return None
        return (p * p if tag == INERT else p), tag

    # h and the regulator are computed on the first read of inst.invariants
    # or inst.density, for they take time growing with |disc|
    def invariants():
        if d > 0:
            return FieldInvariants(2, 0, regulator_real(disc), None, 2, disc)
        roots = 6 if disc == -3 else 4 if disc == -4 else 2
        return FieldInvariants(0, 1, 1.0, class_number_imaginary(disc), roots, -disc)

    def density():
        # c of a real field requires the class number, which we only estimate
        return DensityMeta(c=residue_constant(inst.invariants) if d < 0 else None, alpha=0.5)

    inst = MonoidInstance(
        f"Q(sqrt({d}))",
        source,
        LabelCodec(_ideal_label, parse),
        density,
        counter=_ideal_counter(disc),
        invariants=invariants,
    )
    inst.descriptor = desc
    return inst


def class_number_imaginary(disc: int) -> int:
    """Class number of an imaginary quadratic field by counting reduced forms
    (Cohen, GTM 138, section 5.3).

    Runs over the reduced forms (a, b, c) with b*b - 4*a*c = disc and
    0 <= b <= a <= c.  Each counts once if b = 0, b = a or a = c, and
    otherwise twice, for itself and for (a, -b, c).  Above |disc| =
    MAX_INVARIANT_DISC it raises ValueError instead.
    """
    if disc >= 0 or disc % 4 not in (0, 1):
        raise ValueError(f"need a negative discriminant = 0 or 1 mod 4, got {disc}")
    if -disc > MAX_INVARIANT_DISC:
        raise ValueError(f"|disc| = {-disc} exceeds the class-number limit {MAX_INVARIANT_DISC}")
    h = 0
    for a in range(1, isqrt(-disc // 3) + 1):
        for b in range(disc % 2, a + 1, 2):
            c, r = divmod(b * b - disc, 4 * a)
            if r == 0 and c >= a:
                h += 1 if b in (0, a) or a == c else 2
    return h


def fundamental_unit(d: int) -> tuple[int, int, int, int]:
    """Fundamental unit (u + v*sqrt(d)) / denom of the maximal order, d > 1
    squarefree, from the continued fraction of its generator (Cohen, GTM 138,
    section 5.7).

    Returns (u, v, denom, eta) with u*u - d*v*v == eta * denom**2 and
    eta in {1, -1}.  The generator is w = (P0 + sqrt(d)) / Q0, with
    (P0, Q0) = (1, 2) for d = 1 mod 4 and (0, 1) otherwise.  The first
    convergent p/q of w whose element (Q0*p - P0*q + q*sqrt(d)) / Q0 has
    norm +-1 is the unit; it is reduced to denom 1 when u and v are even.
    The k-th convergent's element has norm (-1)**(k+1) * Q_(k+1) / Q0, so the
    loop stops at Q == Q0, on small integers, and squares once, for eta.
    """
    if d <= 1:
        raise ValueError("d must be > 1")
    a0 = isqrt(d)
    if a0 * a0 == d:
        raise ValueError("d must not be a square")
    P0, Q0 = (1, 2) if d % 4 == 1 else (0, 1)
    P, Q = P0, Q0
    # the convergents p/q start from 0/1 and 1/0
    p_prev, p = 0, 1
    q_prev, q = 1, 0
    while True:
        a = (P + a0) // Q
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
        P = a * Q - P
        Q = (d - P * P) // Q
        if Q == Q0:
            break
    u, v = Q0 * p - P0 * q, q
    eta = (u * u - d * v * v) // (Q0 * Q0)
    if u % 2 == 0 and v % 2 == 0:
        return (u // 2, v // 2, 1, eta)
    return (u, v, Q0, eta)


def _log_surd(u: int, v: int, d: int, denom: int) -> float:
    # log((u + v*sqrt(d)) / denom), robust when u and v overflow float range
    return math.log(v) + math.log(u / v + math.sqrt(d)) - math.log(denom)


def regulator_real(disc: int) -> float:
    """Regulator log(epsilon) of the real quadratic field of discriminant disc;
    ValueError above disc = MAX_INVARIANT_DISC."""
    if disc <= 0:
        raise ValueError("need a positive discriminant")
    if disc > MAX_INVARIANT_DISC:
        raise ValueError(f"disc = {disc} exceeds the regulator limit {MAX_INVARIANT_DISC}")
    d = disc if disc % 4 == 1 else disc // 4
    u, v, denom, _ = fundamental_unit(d)
    return _log_surd(u, v, d, denom)


def residue_constant(inv: FieldInvariants) -> float:
    """Residue of the field zeta function at s = 1 from the invariants."""
    if inv.h is None:
        raise ValueError("class number not populated")
    return (
        2**inv.r1
        * (2 * math.pi) ** inv.r2
        * inv.regulator
        * inv.h
        / (inv.roots_of_unity * math.sqrt(inv.abs_disc))
    )


def class_number_from_counting(inst: MonoidInstance, x) -> tuple[float, int]:
    """Estimate the class number by inverting the residue formula against
    count_up_to(x)/x.  Returns (estimate, rounded); raises
    InconclusiveEstimateError when the estimate is not within 0.4 of a
    positive integer.
    """
    inv = inst.invariants
    if inv is None:
        raise ValueError(f"{inst.name} carries no field invariants")
    ratio = inst.count_up_to(x) / float(x)
    est = (
        ratio
        * inv.roots_of_unity
        * math.sqrt(inv.abs_disc)
        / (2**inv.r1 * (2 * math.pi) ** inv.r2 * inv.regulator)
    )
    h = round(est)
    if h < 1 or abs(est - h) > 0.4:
        raise InconclusiveEstimateError(
            f"class-number estimate {est:.4f} is not near a positive integer"
        )
    return est, h
