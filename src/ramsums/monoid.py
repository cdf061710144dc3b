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
from functools import cached_property
from math import isqrt
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple

if TYPE_CHECKING:
    import numpy as np


class Atom(NamedTuple):
    """A generator of the monoid: dense index, integer norm >= 2, stable label."""

    id: int
    norm: int
    label: str


class _DensityMeta(NamedTuple):
    c: float | None = None
    alpha: float | None = None


class DensityMeta(_DensityMeta):
    """Leading coefficient c and error exponent alpha of the counting function
    count_up_to(x) ~ c*x + O(x**alpha), when known."""

    __slots__ = ()
    _make = classmethod(lambda cls, iterable: cls(*iterable))  # so _replace checks too

    def __new__(cls, c: float | None = None, alpha: float | None = None):
        if c is not None and not c > 0:
            raise ValueError("c must be positive when known")
        if alpha is not None and not alpha < 1:
            raise ValueError("alpha must be < 1")
        return super().__new__(cls, c, alpha)


def _floor(x) -> int:
    return x if isinstance(x, int) else int(math.floor(x))


#: Hard ceiling on atom-table extension; sieving far beyond the experiment
#: scale (1e7) is always a caller mistake, e.g. factoring an integer with a
#: huge prime divisor.  It admits the atom of norm p**2 above an inert prime
#: p up to 14142, so inert labels just past 10**4 resolve.
MAX_EXTEND = 2 * 10**8

#: Ceiling on x for the O(sqrt(x)) counting functions the built-in
#: instances declare: their arrays stay near 8 MB each, and their int64 partial
#: sums far below 2**63.
MAX_HYPERBOLA = 10**12

#: int64 entries per chunk of the array work: 256 KB per temporary
_CHUNK_ITEMS = 1 << 15


def _quotient_sums(values, ends: list[int], s=1) -> Iterator[float | complex]:
    """The float (complex for complex s) sum of values[n] / n**s over n = 1..b,
    left to right, at each b of the increasing list ``ends`` (b >= 0,
    len(values) > ends[-1]).

    Slices of _CHUNK_ITEMS quotients each add the carry into their first one
    before their cumulative sum, which is the same sum term by term, as a +
    b == b + a.  The powers are float64, as an int64 n**3 wraps past n = 2**21
    (about 2.1e6); at s = 1 a quotient rounds as int / int does while
    |values[n]| < 2**53.
    """
    import numpy as np
    total, start = 0.0, 1
    for b in ends:
        for lo in range(start, b + 1, _CHUNK_ITEMS):
            hi = min(lo + _CHUNK_ITEMS, b + 1)
            run = values[lo:hi] / np.arange(lo, hi, dtype=np.float64) ** s
            run[0] += total
            total = np.cumsum(run, out=run)[-1].item()
        yield total
        start = b + 1


class Element:
    """An exponent map atom-id -> positive exponent, stored canonically.

    ``exps`` is a tuple of (atom_id, exponent) pairs with strictly increasing
    ids and positive exponents; the empty tuple is the monoid identity.  The
    raw constructor sorts the pairs by id when an id goes backwards and
    trusts them otherwise (distinct ids, positive exponents);
    :meth:`Element.of` validates arbitrary mappings.  Instances are immutable
    and hashable.
    """

    __slots__ = ("exps",)

    def __init__(self, exps: tuple = ()):
        prev = -1
        for aid, _ in exps:
            if aid < prev:
                exps = tuple(sorted(exps))
                break
            prev = aid
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

    def lcm(self, other: "Element") -> "Element":
        merged = dict(self.exps)
        for a, e in other.exps:
            merged[a] = max(merged.get(a, 0), e)
        return Element(tuple(merged.items()))

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


class DivisorLattice:
    """The divisors of a root R in index order, with their norms.

    A divisor D with digits d_i at R's atoms P_i**e_i has the mixed-radix
    index idx(D) = sum of d_i * w_i, w_i = prod over j > i of (e_j + 1);
    ``places`` holds the (w_i, e_i + 1) and ``index`` maps D.exps to
    idx(D).  For D <= A <= R the complement A - D has index idx(A) -
    idx(D).  ``order``, and :meth:`below` for a sub-root A, list indices by
    (norm, index), which is ``divisors`` order, so sums over them round as
    the Element loops did in inexact rings.
    """

    def __init__(self, root: Element, atom_norms: list[int]):
        paths, norms = [()], [1]
        for aid, emax in root.exps:
            q, grown, grown_norms = atom_norms[aid], [], []
            for path, n in zip(paths, norms):
                grown.append(path)
                grown_norms.append(n)
                for d in range(1, emax + 1):
                    n *= q
                    grown.append(path + ((aid, d),))
                    grown_norms.append(n)
            paths, norms = grown, grown_norms
        self.root, self.norms, self.elems = root, norms, list(map(Element, paths))
        self.order = sorted(range(len(norms)), key=norms.__getitem__)
        self._below: dict[int, list[int]] = {}

    @cached_property
    def places(self) -> list[tuple[int, int]]:
        out = []
        for _, emax in self.root.exps:
            out = [(w * (emax + 1), r) for w, r in out] + [(1, emax + 1)]
        return out

    @cached_property
    def index(self) -> dict[tuple, int]:
        """idx(D) keyed by D.exps, for every divisor D of the root."""
        return {d.exps: i for i, d in enumerate(self.elems)}

    def meet(self, i: int, j: int) -> int:
        """The index of the gcd of divisors i and j: digit by digit, the least."""
        m = 0
        for w, r in self.places:
            a, b = i // w % r, j // w % r
            m += (a if a < b else b) * w
        return m

    def below(self, i: int) -> list[int]:
        """The divisors of divisor i by (norm, index): built in index order,
        then sorted stably by norm."""
        sub = self._below.get(i)
        if sub is None:
            sub = [0]
            for w, r in self.places:
                top = i // w % r * w
                if top:
                    sub = [j + t for j in sub for t in range(0, top + 1, w)]
            self._below[i] = sub = sorted(sub, key=self.norms.__getitem__)
        return sub


class LabelCodec(NamedTuple):
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
    tag, so holding the view costs nothing per atom.  It is the library's
    view; the program reads atoms by id (``norms``, ``label``).
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
    under further extension.  The table keeps the norms as a list of Python
    ints and the tags in a numpy array; :class:`Atom` objects and labels are
    built on demand.

    ``counter(b)``, when given, is an exact count of the elements of norm
    <= b for every integer b >= 1; :meth:`count_up_to` calls it in place of
    summing the sieve's ``counts`` table, and builds no table.  It raises
    ValueError for a b it cannot reach.

    ``density`` is a :class:`DensityMeta` or a function returning one, and
    ``invariants`` a function returning the field invariants, or None; a
    function is called on the first read of the attribute of that name.

    The table is append-only and extension is serialized behind a lock, so
    concurrent readers always see a consistent prefix.  All other state is
    the two sieved tables ``counts`` and ``mertens`` (see :meth:`_table`),
    built on first use and rebuilt when a larger bound is requested; a
    table is only ever replaced by one covering a wider range with identical
    content on the shared indices.  Every query grows the tables it reads,
    so callers never pre-size them: asking for the largest bound first
    builds each table once.  No float sum is cached.
    """

    def __init__(
        self,
        name: str,
        atom_source: Callable[[int, int], tuple[np.ndarray, np.ndarray]],
        labels: LabelCodec,
        density: DensityMeta | Callable[[], DensityMeta] = DensityMeta(),
        parse_int: bool = False,
        counter: Callable[[int], int] | None = None,
        invariants: Callable[[], object] | None = None,
    ):
        self.name = name
        self._density = density
        self._counter = counter
        self._invariants = invariants
        self.descriptor = None
        self._source = atom_source
        self._labels = labels
        self._tags = ()  # int8 numpy array from the first extension on
        self._norms: list[int] = []
        self._hw = 1  # every atom with norm <= _hw is materialized
        self._parse_int = parse_int
        self._lock = threading.Lock()  # guards extension and table swaps
        self._tables: dict[str, np.ndarray] = {}  # kind -> table, see _table

    @cached_property
    def density(self) -> DensityMeta:
        return self._density() if callable(self._density) else self._density

    @cached_property
    def invariants(self):
        return None if self._invariants is None else self._invariants()

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
        import numpy as np
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
            # tags first: readers take the list's length as the table's
            self._tags = np.concatenate((np.asarray(self._tags, dtype=np.int8), tags))
            self._norms.extend(norms.tolist())
            self._hw = bound

    def ensure_atom_count(self, n: int) -> None:
        target = max(self._hw, 2)
        while len(self._norms) < n:
            target *= 2
            if target > 10**9:
                raise RuntimeError("atom stream too sparse")
            self.extend(target)

    def label(self, aid: int) -> str:
        """Label of atom ``aid`` >= 0, the one formatter: from its norm and tag."""
        return self._labels.format(self._norms[aid], self._tags.item(aid))

    def atom(self, aid: int) -> Atom:
        """The library's view of atom ``aid``; the program reads atoms by id
        (:attr:`norms`, :meth:`label`) and builds none."""
        aid = range(len(self._norms))[aid]  # list indexing rules
        return Atom(aid, self._norms[aid], self.label(aid))

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

    def lattice(self, e: Element) -> "DivisorLattice":
        """The divisors of ``e`` in index order, with their norms."""
        return DivisorLattice(e, self._norms)

    def divisors(self, e: Element) -> list[Element]:
        """All elements below ``e``, sorted by (norm, exponent vector): the
        (norm, index)-sorted view of :meth:`lattice`.

        The list has exactly prod(exponent_i + 1) entries; norm ties are
        broken by the mixed-radix index of the exponent vector over e's atoms,
        first atom most significant.  D -> e - D reverses both keys, so the
        list is complement-symmetric: e - divs[i] is divs[-1 - i].
        """
        lat = self.lattice(e)
        return [lat.elems[i] for i in lat.order]

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
        """Number of elements with norm <= x: from the declared ``counter``
        when the instance has one, which builds no table, else the sum of
        the ``counts`` table up to x (numpy adds int32 in int64)."""
        b = _floor(x)
        if b < 1:
            return 0
        if self._counter is not None:
            return self._counter(b)
        return int(self.norm_counts(b)[: b + 1].sum())

    def harmonic_up_to(self, x) -> float:
        """Sum of 1/norm over elements with norm <= x (float), left to right."""
        b = _floor(x)
        return next(_quotient_sums(self.norm_counts(b), [b])) if b >= 1 else 0.0

    def mertens_up_to(self, x) -> int:
        """Signed squarefree count: sum of (-1)**degree over squarefree
        elements with norm <= x (the Mertens function of the instance)."""
        b = _floor(x)
        return int(self._table("mertens", b)[b]) if b >= 1 else 0

    def _table(self, kind: str, bound: int) -> np.ndarray:
        """The cached table ``kind``, valid for indices <= bound, grown first
        if it is shorter:

        * ``counts``: int32 ``cnt[n]``, the elements of norm exactly n;
        * ``mertens``: int64 cumulative signed squarefree counts.
        """
        table = self._tables.get(kind)
        if table is not None and bound < len(table):
            return table
        import numpy as np
        if kind == "counts":
            table = self._sieve(bound, squarefree=False)
        else:  # mertens
            table = np.cumsum(self._sieve(bound, squarefree=True), dtype=np.int64)
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
        import numpy as np
        self.extend(bound)
        norms = self._norms
        n_small = bisect_right(norms, isqrt(bound))
        n_atoms = bisect_right(norms, bound)
        cnt = np.zeros(bound + 1, dtype=np.int32)
        cnt[1] = 1
        for q in norms[:n_small]:
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
        large = np.array(norms[n_small:n_atoms], dtype=np.int64)
        large, mult = np.unique(large, return_counts=True)
        mult = mult.astype(np.int32) * (-1 if squarefree else 1)
        # cofactors m < sqrt(bound) hold their final values; writes land above
        for m in range(1, bound // int(large[0]) + 1):
            c = int(cnt[m])
            if c:
                top = int(np.searchsorted(large, bound // m, side="right"))
                cnt[large[:top] * m] += c * mult[:top]
        return cnt
