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
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from math import isqrt
from typing import Callable, Iterator

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
#: huge prime divisor.  It admits the atom of norm p**2 above an inert prime
#: p up to 14142, so inert labels just past 10**4 resolve.
MAX_EXTEND = 2 * 10**8


class Element:
    """An exponent map atom-id -> positive exponent, stored canonically.

    ``exps`` is a tuple of (atom_id, exponent) pairs with strictly increasing
    ids and positive exponents; the empty tuple is the monoid identity.  The
    raw constructor sorts the pairs by id and trusts them otherwise (distinct
    ids, positive exponents); :meth:`Element.of` validates arbitrary
    mappings.  Instances are immutable and hashable.
    """

    __slots__ = ("exps",)

    def __init__(self, exps: tuple = ()):
        self.exps = tuple(sorted(exps)) if len(exps) > 1 else exps

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
        elem = cls(tuple(pairs))
        for (a, _), (b, _) in zip(elem.exps, elem.exps[1:]):
            if a == b:
                raise ValueError(f"duplicate atom id {a}")
        return elem

    @property
    def is_zero(self) -> bool:
        return not self.exps

    def add(self, other: "Element") -> "Element":
        merged = dict(self.exps)
        for a, e in other.exps:
            merged[a] = merged.get(a, 0) + e
        return Element(tuple(merged.items()))

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
        return Element(tuple(merged.items()))

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


@dataclass(frozen=True)
class LabelCodec:
    """Two-way map between an atom's (norm, tag) and its label.

    ``format(norm, tag)`` gives the label.  ``parse(label)`` gives the
    (norm, tag) of the atom the label would name, materialized or not, or
    None when no atom of the instance can carry it.
    """

    format: Callable[[int, int], str]
    parse: Callable[[str], tuple[int, int] | None]


class AtomTable(Sequence):
    """Read-only sequence view of an instance's atoms, in id order.

    :class:`Atom` objects are built on each access from the stored norm and
    tag, so holding the view costs nothing per atom.
    """

    __slots__ = ("_inst",)

    def __init__(self, inst: "MonoidInstance"):
        self._inst = inst

    def __len__(self) -> int:
        return len(self._inst._norms)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self._inst.atom(j) for j in range(*i.indices(len(self)))]
        return self._inst.atom(i)

    def __iter__(self) -> Iterator[Atom]:
        atom = self._inst.atom
        return (atom(j) for j in range(len(self)))


class MonoidInstance:
    """An extendable, norm-sorted atom table with cached counting data.

    ``atom_source(lo, hi)`` must return two equal-length arrays ``(norms,
    tags)``, in any order, with one entry for every atom of the instance
    whose norm lies in the half-open window ``(lo, hi]``.  A tag is a small
    integer (it fits in int8) that tells apart atoms of equal norm; ordering
    atoms by (norm, tag) must order them as by (norm, label).  ``labels``
    turns (norm, tag) into the atom's label and back.

    After :meth:`extend`, every atom with norm <= the bound is present exactly
    once, with ids assigned in (norm, label) order; ids are therefore stable
    under further extension.  The table keeps norms and tags in numpy arrays
    plus the norms as a list of Python ints for the exact evaluators;
    :class:`Atom` objects and labels are built on demand.

    The table is append-only and extension is serialized behind a lock, so
    concurrent readers always see a consistent prefix.  All other state is
    counting tables, built on first use and rebuilt when a larger bound is
    requested; a table is only ever replaced by one covering a wider range
    with identical content on the shared indices.  Every query grows the
    tables it reads, so callers never pre-size them: asking for the largest
    bound first builds each table once.
    """

    def __init__(
        self,
        name: str,
        atom_source: Callable[[int, int], tuple[np.ndarray, np.ndarray]],
        labels: LabelCodec,
        density: DensityMeta = DensityMeta(),
        parse_int: bool = False,
    ):
        self.name = name
        self.density = density
        self.invariants = None  # populated by number-field constructors
        self.descriptor = None
        self._source = atom_source
        self._labels = labels
        self._norm_arr = np.zeros(0, dtype=np.int64)
        self._tags = np.zeros(0, dtype=np.int8)
        self._norms: list[int] = []
        self._hw = 1  # every atom with norm <= _hw is materialized
        self._parse_int = parse_int
        self._lock = threading.Lock()  # guards extension and table swaps
        self._tables: dict[str, np.ndarray] = {}  # kind -> table, see _table

    # -- atom table ---------------------------------------------------

    @property
    def parses_integers(self) -> bool:
        return self._parse_int

    @property
    def atoms(self) -> AtomTable:
        """Materialized atoms, norm-sorted."""
        return AtomTable(self)

    @property
    def norms(self) -> list[int]:
        """Atom norms by id, as Python ints; treat as read-only."""
        return self._norms

    def extend(self, x) -> None:
        bound = _floor(x)
        if bound <= self._hw:
            return
        if bound > MAX_EXTEND:
            raise ValueError(f"extension bound {bound} exceeds the limit {MAX_EXTEND}")
        with self._lock:
            if bound <= self._hw:  # another thread got here first
                return
            norms, tags = self._source(self._hw, bound)
            norms = np.asarray(norms, dtype=np.int64)
            tags = np.asarray(tags, dtype=np.int8)
            order = np.lexsort((tags, norms))
            norms, tags = norms[order], tags[order]
            if norms.size:
                if norms[0] < 2:
                    raise ValueError(f"atom norm must be >= 2, got {norms[0]}")
                if norms[0] <= self._hw or norms[-1] > bound:
                    raise ValueError(f"atom source produced a norm outside ({self._hw}, {bound}]")
                dup = np.flatnonzero((norms[1:] == norms[:-1]) & (tags[1:] == tags[:-1]))
                if dup.size:
                    label = self._labels.format(int(norms[dup[0]]), int(tags[dup[0]]))
                    raise ValueError(f"atom source produced duplicate label {label!r}")
            # arrays first: readers take the list's length as the table's
            self._norm_arr = np.concatenate((self._norm_arr, norms))
            self._tags = np.concatenate((self._tags, tags))
            self._norms.extend(norms.tolist())
            self._hw = bound

    def ensure_atom_count(self, n: int) -> None:
        target = max(self._hw, 2)
        while len(self._norms) < n:
            target *= 2
            if target > 10**9:
                raise RuntimeError("atom stream too sparse")
            self.extend(target)

    def atom(self, aid: int) -> Atom:
        aid = range(len(self._norms))[aid]  # list indexing rules
        norm = self._norms[aid]
        return Atom(aid, norm, self._labels.format(norm, int(self._tags[aid])))

    def parse_label(self, label: str) -> tuple[int, int] | None:
        """(norm, tag) of the atom ``label`` names, materialized or not, or
        None when the label is not the canonical label of any atom."""
        key = self._labels.parse(label)
        if key is None or self._labels.format(*key) != label:
            return None
        return key

    def atom_id(self, norm: int, tag: int = 0) -> int | None:
        """Id of the atom with this norm and tag, extending the table to its
        norm, or None when the instance has no such atom."""
        self.extend(norm)
        norms = self._norms
        for aid in range(bisect_left(norms, norm), bisect_right(norms, norm)):
            if self._tags[aid] == tag:
                return aid
        return None

    def atom_by_label(self, label: str) -> Atom | None:
        """The atom with this label, extending the table to its norm, or None."""
        key = self.parse_label(label)
        aid = None if key is None else self.atom_id(*key)
        return None if aid is None else self.atom(aid)

    # -- element operations --------------------------------------------

    def norm(self, e: Element) -> int:
        norms = self._norms
        n = 1
        for aid, exp in e.exps:
            n *= norms[aid] ** exp
        return n

    def divisors(self, e: Element) -> list[Element]:
        """All elements below ``e``, sorted by (norm, exponent vector).

        The list has exactly prod(exponent_i + 1) entries.
        """
        items = [(1, ())]
        for aid, emax in e.exps:
            q = self._norms[aid]
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
        """Array ``cnt`` (int32) with ``cnt[n]`` = number of elements of norm
        exactly n, valid for n <= bound (the array may extend further)."""
        return self._table("counts", max(_floor(bound), 1))

    def count_up_to(self, x) -> int:
        b = _floor(x)
        return int(self._table("prefix", b)[b]) if b >= 1 else 0

    def harmonic_up_to(self, x) -> float:
        """Sum of 1/norm over elements with norm <= x (float)."""
        b = _floor(x)
        return float(self._table("harmonic", b)[b]) if b >= 1 else 0.0

    def mertens_up_to(self, x) -> int:
        """Signed squarefree count: sum of (-1)**degree over squarefree
        elements with norm <= x (the Mertens function of the instance)."""
        b = _floor(x)
        return int(self._table("mertens", b)[b]) if b >= 1 else 0

    def _table(self, kind: str, bound: int) -> np.ndarray:
        """The cached table ``kind``, valid for indices <= bound, grown first
        if it is shorter:

        * ``counts``: int32 ``cnt[n]``, the elements of norm exactly n;
        * ``prefix``: cumulative ``cnt``, int32 while the total fits, else int64;
        * ``harmonic``: float64 cumulative ``cnt[n] / n``;
        * ``mertens``: int64 cumulative signed squarefree counts.
        """
        table = self._tables.get(kind)
        if table is not None and bound < len(table):
            return table
        if kind == "counts":
            table = self._sieve(bound, squarefree=False)
        elif kind == "mertens":
            table = np.cumsum(self._sieve(bound, squarefree=True), dtype=np.int64)
        elif kind == "prefix":
            cnt = self.norm_counts(bound)
            # int32 prefix sums when the total fits, without an int64 temporary
            wide = cnt.sum(dtype=np.int64) >= 2**31
            table = np.cumsum(cnt, dtype=np.int64 if wide else np.int32)
        else:  # harmonic
            cnt = self.norm_counts(bound)
            table = np.empty(len(cnt))
            table[0] = 0.0
            np.divide(cnt[1:], np.arange(1, len(cnt), dtype=np.float64), out=table[1:])
            np.cumsum(table, out=table)
        with self._lock:
            cached = self._tables.get(kind)
            if cached is None or len(table) > len(cached):
                self._tables[kind] = table
        return table

    def _sieve(self, bound: int, squarefree: bool) -> np.ndarray:
        """int32 array of length bound + 1 whose entry n counts the elements
        of norm n: all of them, or only the squarefree ones, each signed by
        (-1)**degree.

        Atoms with q*q <= bound are applied one at a time by slice passes.
        A larger atom divides an element of norm <= bound at most once, and
        its cofactor has norm m < sqrt(bound), so it is built from small
        atoms only.  The large atoms are therefore applied together, in one
        vectorized pass per cofactor m.
        """
        self.extend(bound)
        norms = self._norm_arr
        n_small = int(np.searchsorted(norms, isqrt(bound), side="right"))
        n_atoms = int(np.searchsorted(norms, bound, side="right"))
        cnt = np.zeros(bound + 1, dtype=np.int32)
        cnt[1] = 1
        for q in self._norms[:n_small]:
            if squarefree:
                cnt[q::q] -= cnt[1 : bound // q + 1].copy()
                continue
            # binary-power pseudo-atoms: applying q**(2**j) once each
            # realizes every exponent exactly once
            pw = q
            while pw <= bound:
                cnt[pw::pw] += cnt[1 : bound // pw + 1].copy()
                pw *= pw
        if n_atoms == n_small:
            return cnt
        # split primes give two atoms of one norm
        large, mult = np.unique(norms[n_small:n_atoms], return_counts=True)
        mult = mult.astype(np.int32) * (-1 if squarefree else 1)
        # cofactors m < sqrt(bound) hold their final values; writes land above
        for m in range(1, bound // int(large[0]) + 1):
            c = int(cnt[m])
            if c:
                top = int(np.searchsorted(large, bound // m, side="right"))
                cnt[large[:top] * m] += c * mult[:top]
        return cnt
