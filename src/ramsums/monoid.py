"""Free abelian monoid with a completely multiplicative integer norm.

Elements are finitely supported exponent maps over a countable family of
atoms.  Every atom carries an integer norm >= 2; the norm of an element is
the product of its atom norms raised to the exponents, so the identity
element (the empty map) has norm 1 and norm(a + b) = norm(a) * norm(b).

Atoms are materialized lazily, in nondecreasing norm order (ties broken by
label), by an instance-specific source callback.  Concrete sources -- the
rational primes, and prime ideals of a quadratic field -- live in
:mod:`ramsums.fields`; everything here is instance-agnostic.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np


@dataclass(frozen=True)
class Atom:
    """A generator of the monoid: dense index, integer norm >= 2, stable label."""

    id: int
    norm: int
    label: str


@dataclass(frozen=True)
class DensityMeta:
    """Leading coefficient c and error exponent alpha of the counting function
    count_up_to(x) ~ c*x + O(x**alpha), when known."""

    c: float | None = None
    alpha: float | None = None

    def __post_init__(self):
        if self.c is not None and not self.c > 0:
            raise ValueError("c must be positive when known")
        if self.alpha is not None and not self.alpha < 1:
            raise ValueError("alpha must be < 1")


def _floor(x) -> int:
    return x if isinstance(x, int) else int(math.floor(x))


#: Hard ceiling on atom-table extension; sieving far beyond the experiment
#: scale (1e7) is always a caller mistake, e.g. factoring an integer with a
#: huge prime divisor.
MAX_EXTEND = 10**8


class Element:
    """An exponent map atom-id -> positive exponent, stored canonically.

    ``exps`` is a tuple of (atom_id, exponent) pairs with strictly increasing
    ids and positive exponents; the empty tuple is the monoid identity.  The
    raw constructor trusts its input; :meth:`Element.of` normalizes arbitrary
    mappings.  Instances are immutable and hashable.
    """

    __slots__ = ("exps",)

    def __init__(self, exps: tuple = ()):
        self.exps = exps

    @classmethod
    def of(cls, mapping) -> "Element":
        items = mapping.items() if hasattr(mapping, "items") else mapping
        pairs = []
        for aid, exp in items:
            aid, exp = int(aid), int(exp)
            if exp < 0:
                raise ValueError(f"negative exponent {exp} for atom {aid}")
            if exp:
                pairs.append((aid, exp))
        pairs.sort()
        for (a, _), (b, _) in zip(pairs, pairs[1:]):
            if a == b:
                raise ValueError(f"duplicate atom id {a}")
        return cls(tuple(pairs))

    @property
    def is_zero(self) -> bool:
        return not self.exps

    def exponent(self, aid: int) -> int:
        for a, e in self.exps:
            if a == aid:
                return e
            if a > aid:
                break
        return 0

    def add(self, other: "Element") -> "Element":
        merged = dict(self.exps)
        for a, e in other.exps:
            merged[a] = merged.get(a, 0) + e
        return Element(tuple(sorted(merged.items())))

    def sub(self, other: "Element") -> "Element":
        """Pointwise exponent difference; requires other <= self."""
        merged = dict(self.exps)
        for a, e in other.exps:
            r = merged.get(a, 0) - e
            if r < 0:
                raise ValueError("subtrahend is not below the minuend")
            if r:
                merged[a] = r
            else:
                merged.pop(a, None)
        return Element(tuple(sorted(merged.items())))

    def gcd(self, other: "Element") -> "Element":
        mine = dict(self.exps)
        pairs = []
        for a, e in other.exps:
            m = mine.get(a, 0)
            if m:
                pairs.append((a, min(m, e)))
        return Element(tuple(pairs))

    def leq(self, other: "Element") -> bool:
        """Partial order: every exponent of self is <= the matching one."""
        theirs = dict(other.exps)
        return all(theirs.get(a, 0) >= e for a, e in self.exps)

    def __eq__(self, other):
        return isinstance(other, Element) and self.exps == other.exps

    def __hash__(self):
        return hash(self.exps)

    def __repr__(self):
        return f"Element({dict(self.exps)!r})" if self.exps else "Element(0)"


ZERO = Element()


class MonoidInstance:
    """An extendable, norm-sorted atom table with cached counting data.

    ``atom_source(lo, hi)`` must yield a ``(norm, label)`` pair, in any
    order, for every atom of the instance with norm in the half-open window
    ``(lo, hi]``.  After :meth:`extend`, every atom with norm <= the bound is
    present exactly once, with ids assigned in (norm, label) order; ids are
    therefore stable under further extension.

    The table is append-only and extension is serialized behind a lock, so
    concurrent readers always see a consistent prefix.  All other state is
    counting caches, rebuilt transparently when a larger bound is requested;
    a cache is only ever replaced by one covering a wider range with
    identical content on the shared indices.
    """

    def __init__(
        self,
        name: str,
        atom_source: Callable[[int, int], Iterable[tuple[int, str]]],
        density: DensityMeta = DensityMeta(),
        parse_int: bool = False,
    ):
        self.name = name
        self.density = density
        self.invariants = None  # populated by number-field constructors
        self.descriptor = None
        self._source = atom_source
        self._atoms: list[Atom] = []
        self._norms: list[int] = []
        self._by_label: dict[str, Atom] = {}
        self._hw = 1  # every atom with norm <= _hw is materialized
        self._parse_int = parse_int
        self._lock = threading.Lock()  # guards extension and cache rebuilds
        self._cnt_bound = -1
        self._cnt = None
        self._cum = None
        self._harm = None
        self._mu_cum = None

    # -- atom table ---------------------------------------------------

    @property
    def parses_integers(self) -> bool:
        return self._parse_int

    @property
    def atoms(self) -> list[Atom]:
        """Materialized atoms, norm-sorted; treat as read-only."""
        return self._atoms

    def extend(self, x) -> None:
        bound = _floor(x)
        if bound <= self._hw:
            return
        if bound > MAX_EXTEND:
            raise ValueError(f"extension bound {bound} exceeds the limit {MAX_EXTEND}")
        with self._lock:
            if bound <= self._hw:  # another thread got here first
                return
            fresh = sorted(self._source(self._hw, bound))
            base = len(self._atoms)
            for i, (norm, label) in enumerate(fresh):
                if norm < 2:
                    raise ValueError(f"atom norm must be >= 2, got {norm}")
                if label in self._by_label:
                    raise ValueError(f"atom source produced duplicate label {label!r}")
                atom = Atom(base + i, int(norm), label)
                self._atoms.append(atom)
                self._norms.append(atom.norm)
                self._by_label[label] = atom
            self._hw = bound

    def ensure_atom_count(self, n: int) -> None:
        target = max(self._hw, 2)
        while len(self._atoms) < n:
            target *= 2
            if target > 10**9:
                raise RuntimeError("atom stream too sparse")
            self.extend(target)

    def atom(self, aid: int) -> Atom:
        return self._atoms[aid]

    def atom_by_label(self, label: str) -> Atom | None:
        return self._by_label.get(label)

    # -- element operations --------------------------------------------

    def norm(self, e: Element) -> int:
        n = 1
        for aid, exp in e.exps:
            n *= self._atoms[aid].norm ** exp
        return n

    def divisors(self, e: Element) -> list[Element]:
        """All elements below ``e``, sorted by (norm, exponent vector).

        The list has exactly prod(exponent_i + 1) entries.
        """
        items = [(1, ())]
        for aid, emax in e.exps:
            q = self._atoms[aid].norm
            grown = []
            for norm0, path in items:
                pw = 1
                for d in range(emax + 1):
                    grown.append((norm0 * pw, path + ((aid, d),) if d else path))
                    pw *= q
            items = grown
        items.sort()
        return [Element(path) for _, path in items]

    # -- enumeration and counting ---------------------------------------

    def scan_up_to(self, x) -> Iterator[tuple[int, tuple]]:
        """Yield (norm, exps) for every element with norm <= x, each once.

        Depth-first over the norm-sorted atoms with pruning; the order is
        deterministic but not norm-sorted (see :meth:`enumerate_up_to`).
        """
        bound = _floor(x)
        if bound < 1:
            return
        self.extend(bound)
        norms = self._norms
        n_atoms = len(norms)
        stack = [(0, 1, ())]
        while stack:
            j0, p, path = stack.pop()
            yield p, path
            for j in range(j0, n_atoms):
                q = norms[j]
                pq = p * q
                if pq > bound:
                    break
                e = 1
                while pq <= bound:
                    stack.append((j + 1, pq, path + ((j, e),)))
                    pq *= q
                    e += 1

    def enumerate_up_to(self, x) -> Iterator[Element]:
        """All elements with norm <= x, nondecreasing norm, ties by
        lexicographic exponent vector.  Empty for x < 1."""
        items = sorted(self.scan_up_to(x))
        return iter([Element(path) for _, path in items])

    def norm_counts(self, bound) -> np.ndarray:
        """Array ``cnt`` with ``cnt[n]`` = number of elements of norm exactly
        n, valid for n <= bound (the array may extend further)."""
        b = max(_floor(bound), 1)
        if self._cnt is None or b > self._cnt_bound:
            self._build_counts(b)
        return self._cnt

    def count_up_to(self, x) -> int:
        b = _floor(x)
        if b < 1:
            return 0
        self.norm_counts(b)
        return int(self._cum[b])

    def harmonic_up_to(self, x) -> float:
        """Sum of 1/norm over elements with norm <= x (float)."""
        b = _floor(x)
        if b < 1:
            return 0.0
        self.norm_counts(b)
        return float(self._harm[b])

    def mertens_up_to(self, x) -> int:
        """Signed squarefree count: sum of (-1)**degree over squarefree
        elements with norm <= x (the Mertens function of the instance)."""
        b = _floor(x)
        if b < 1:
            return 0
        self.norm_counts(b)
        return int(self._mu_cum[b])

    def _build_counts(self, bound: int) -> None:
        self.extend(bound)
        cnt = np.zeros(bound + 1, dtype=np.int64)
        sqf = np.zeros(bound + 1, dtype=np.int64)
        cnt[1] = 1
        sqf[1] = 1
        for q in self._norms:
            if q > bound:
                break
            # squarefree layer: exponent exactly 0 or 1
            sqf[q::q] -= sqf[1 : bound // q + 1].copy()
            # full exponent range via binary-power pseudo-atoms: applying
            # q**(2**j) once each realizes every exponent exactly once
            pw = q
            while pw <= bound:
                cnt[pw::pw] += cnt[1 : bound // pw + 1].copy()
                pw *= pw
        weights = np.zeros(bound + 1)
        weights[1:] = cnt[1:] / np.arange(1, bound + 1)
        with self._lock:
            if bound > self._cnt_bound:  # never replace a wider cache
                self._cnt = cnt
                self._cum = np.cumsum(cnt)
                self._harm = np.cumsum(weights)
                self._mu_cum = np.cumsum(sqf)
                self._cnt_bound = bound
