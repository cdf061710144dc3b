"""Dirichlet convolution algebra of functions on the monoid.

An :class:`ArithFn` wraps a pure evaluator Element -> value together with a
value-ring tag; convolution, inversion, and the classical special functions
(Möbius, von Mangoldt, Jordan-type totients) are provided on top.  Sums are
always finite: they run over the divisor lattice below a fixed element.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Callable, NamedTuple

from .monoid import DivisorLattice, Element, MonoidInstance

INT = "int"
RATIONAL = "rational"
FLOAT = "float"
COMPLEX = "complex"


class ArithFn(NamedTuple):
    """A pure function on elements, tagged with its value ring."""

    fn: Callable[[Element], object]
    ring: str = INT
    name: str = ""

    def __call__(self, e: Element):
        return self.fn(e)


def _unit_zero(ring: str) -> tuple:
    """(unit, zero) of a value ring; ``fractions`` loads only for RATIONAL."""
    if ring != RATIONAL:
        return {INT: (1, 0), FLOAT: (1.0, 0.0), COMPLEX: (1 + 0j, 0j)}[ring]
    from fractions import Fraction
    return Fraction(1), Fraction(0)


def _check_ring(*fns: ArithFn) -> str:
    rings = {f.ring for f in fns}
    if len(rings) != 1:
        raise ValueError(f"value-ring mismatch: {sorted(rings)}")
    return fns[0].ring


def mobius(e: Element) -> int:
    """(-1)**(number of atoms) on squarefree elements, else 0; 1 at the identity."""
    sign = 1
    for _, exp in e.exps:
        if exp > 1:
            return 0
        sign = -sign
    return sign


def mobius_fn() -> ArithFn:
    return ArithFn(mobius, INT, "mu")


def one(ring: str = INT) -> ArithFn:
    unit = _unit_zero(ring)[0]
    return ArithFn(lambda e: unit, ring, "1")


def delta(ring: str = INT) -> ArithFn:
    unit, zero = _unit_zero(ring)
    return ArithFn(lambda e: unit if e.is_zero else zero, ring, "delta")


def norm_fn(inst: MonoidInstance) -> ArithFn:
    return ArithFn(inst.norm, INT, "N")


def von_mangoldt(inst: MonoidInstance, e: Element) -> float:
    """log(atom norm) on single-atom elements (prime powers), else 0."""
    if len(e.exps) == 1:
        return math.log(inst.norms[e.exps[0][0]])
    return 0.0


def _mobius_terms(inst: MonoidInstance, e: Element) -> list[tuple[int, int]]:
    """[(mu(e - D), norm(D))] over the divisors D of e with e - D squarefree,
    in ``divisors(e)`` order; e - D is read off the reversed divisor list."""
    divs = inst.divisors(e)
    return [(mu, inst.norm(d)) for d, c in zip(divs, reversed(divs)) if (mu := mobius(c))]


def von_mangoldt_by_divisors(inst: MonoidInstance, e: Element) -> float:
    """Definitional evaluator: sum of mu(e - D) * log(norm(D)) over D <= e.

    Must agree with :func:`von_mangoldt`; kept separate so the two can be
    checked against each other.
    """
    return sum((mu * math.log(nd) for mu, nd in _mobius_terms(inst, e)), 0.0)


def convolve(inst: MonoidInstance, f: ArithFn, g: ArithFn, e: Element):
    """(f * g)(e) = sum of f(D) g(e - D) over the divisors D of e.

    f and g are evaluated once per divisor; g(e - D) is read at index
    idx(e) - idx(D), and the terms are added in ``divisors(e)`` order (see
    :class:`DivisorLattice`)."""
    _check_ring(f, g)
    lat = inst.lattice(e)
    fv, gv, top = list(map(f.fn, lat.elems)), list(map(g.fn, lat.elems)), len(lat.elems) - 1
    return sum(fv[d] * gv[top - d] for d in lat.order)


def _bilinear(lat: DivisorLattice, fv: list, gv: list, m: int, k: int):
    """Sum of f(D) g(K - D) over the D below both M and K, all given by
    index, f and g by their values in index order, in ``divisors`` order."""
    return sum(fv[d] * gv[k - d] for d in lat.below(lat.meet(m, k)))


class DownsetTable:
    """Values on the divisors of a fixed root: ``values`` is a flat list in
    index order, and an element is looked up through ``index``, its
    :attr:`DivisorLattice.index` (KeyError off the divisors).  Compares by
    identity."""

    __slots__ = ("index", "values", "ring")

    def __init__(self, index: dict, values: list, ring: str = INT):
        self.index, self.values, self.ring = index, values, ring

    def __getitem__(self, e: Element):
        return self.values[self.index[e.exps]]

    def as_fn(self, name: str = "") -> ArithFn:
        return ArithFn(self.__getitem__, self.ring, name)


def dirichlet_inverse(inst: MonoidInstance, f: ArithFn, root: Element) -> DownsetTable:
    """Table g on divisors(root) with (f * g)(d) = delta(d) for every d <= root.

    Requires f at the identity to be invertible in the value ring: +-1 for
    exact integers, nonzero otherwise.  f is evaluated once per divisor;
    g(a) is solved for in ``divisors(root)`` order from g(a - d), read at
    idx(a) - idx(d), and the terms are added in ``divisors(a)`` order.
    """
    lat = inst.lattice(root)
    fv = list(map(f.fn, lat.elems))
    f0 = fv[0]
    if f.ring == INT:
        if f0 not in (1, -1):
            raise ValueError(f"f(0) = {f0!r} is not invertible over the integers")
        inv0 = f0
    else:
        if f0 == 0:
            raise ValueError("f(0) = 0 is not invertible")
        inv0 = _unit_zero(f.ring)[0] / f0
    values = [inv0] * len(fv)
    for a in lat.order[1:]:
        acc = None
        for d in lat.below(a)[1:]:
            term = fv[d] * values[a - d]
            acc = term if acc is None else acc + term
        values[a] = -inv0 * acc
    return DownsetTable(lat.index, values, f.ring)


def jordan_totient(inst: MonoidInstance, e: Element, s=1):
    """Totient of order s: sum of mu(e - D) * norm(D)**s over D <= e.

    The sum is multiplicative, so it is evaluated as the Euler product over
    the atoms P**k of e of norm(P)**(k s) - norm(P)**((k - 1) s); no divisor
    is walked.  Exact (integer or rational) for integer s; s = 1 is the
    Euler totient analogue and s = 0 recovers the convolution identity delta.
    """
    if isinstance(s, int):
        if s >= 0:
            power = lambda n: n**s
        else:
            from fractions import Fraction
            power = lambda n: Fraction(1, n**-s)
    elif isinstance(s, complex):
        power = lambda n: n**s
    else:
        power = lambda n: float(n) ** s
    total = power(1)
    for aid, k in e.exps:
        q = inst.norms[aid]
        total *= power(q**k) - power(q ** (k - 1))
    return total


AbelSummation = namedtuple("AbelSummation", "direct partial residual")


def abel_sum(inst: MonoidInstance, g: ArithFn, f: Callable[[float], float], x) -> AbelSummation:
    """Evaluate sum of g(A) f(norm(A)) over norm(A) <= x two ways.

    ``direct`` is the plain sum; ``partial`` is the partial-summation form
    S(x) f(x) - integral of S(t) f'(t) on [1, x], where S is the running sum
    of g.  S is a step function, so the integral is computed exactly as
    sum of S * (f(b) - f(a)) over the segments between consecutive norms;
    no quadrature and no derivative of f is needed.  ``residual`` is the
    absolute difference, which isolates floating-point error.
    """
    running = 0.0
    direct = 0.0
    integral = 0.0
    prev = None
    for e in inst.enumerate_up_to(x):
        n = inst.norm(e)
        if prev is None:
            prev = n
        elif n != prev:
            integral += running * (f(n) - f(prev))
            prev = n
        gv = g(e)
        running += gv
        direct += gv * f(n)
    if prev is None:
        return AbelSummation(0.0, 0.0, 0.0)
    integral += running * (f(x) - f(prev))
    partial = running * f(x) - integral
    return AbelSummation(direct, partial, abs(direct - partial))
