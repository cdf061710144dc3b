"""Generalized Ramanujan sums, their evaluators and the identities they satisfy.

The central quantity is the exact integer

    csum(K, M) = sum over D below both M and K of norm(D) * mu(K - D),

evaluated one pair at a time (:func:`ramanujan_sum`) or as a grid
(:func:`csum_block`), together with the classical identities it satisfies
(divisor-sum and divisibility identities, the two convolution identities
for the general bilinear sums) and the exact double sums S(x, y).  The
norm-ordered series and partial sums live in :mod:`ramsums.series`.

Exact values stay exact: the sums are evaluated in integer arithmetic, and
floats enter only the main term of the double sums.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterator
from functools import cached_property
from itertools import accumulate, chain
from typing import NamedTuple

import numpy as np

from .arith import ArithFn, _bilinear, _check_ring, jordan_totient, mobius, one
from .monoid import _CHUNK_ITEMS, Element, MonoidInstance, _floor

#: Fewest rows or columns in one :func:`csum_block` call (:func:`chunk_width`).
_MIN_CHUNK_WIDTH = 128


class IdentityReport(NamedTuple):
    lhs: object
    rhs: object
    passed: bool
    context: str = ""


class DoubleSumReport(NamedTuple):
    """Exact double sum S(x, y) with its main-term decomposition."""

    x: float
    y: float
    value: int               # regrouped evaluation, always exact
    direct: int | None       # direct double sum, when within the pair budget
    c: float | None
    main_term: float | None
    residual: float | None   # value - c * x
    bound_ref: float | None  # x**alpha * y**(2 - alpha)


def ramanujan_sum(inst: MonoidInstance, k: Element, m: Element) -> int:
    """Exact csum(K, M); integer-valued.

    Factors over the atoms of K: only divisors D with K - D squarefree
    contribute, leaving at most two exponent choices per atom.  The
    exponents of M are read in one merge walk along K's atoms (both are
    id-sorted, see :class:`Element`).
    """
    norms = inst.norms
    mexps = m.exps
    n_m = len(mexps)
    total = 1
    j = 0
    for aid, ke in k.exps:
        while j < n_m and mexps[j][0] < aid:
            j += 1
        me = mexps[j][1] if j < n_m and mexps[j][0] == aid else 0
        q = norms[aid]
        if ke == 1:
            total = total * (q - 1) if me else -total
        elif me >= ke:
            total *= q**ke - q ** (ke - 1)
        elif me == ke - 1:
            total *= -(q ** (ke - 1))
        else:
            return 0
    return total


class CsumSide(list):
    """One side of :func:`csum_block`, its elements' atom powers read once:
    ``aid``, ``exp`` and ``pos`` hold each (atom, exponent) pair with the
    element's position, by atom power, then position.  As rows, ``groups``
    lists (atom id, e, positions) per atom power and refuses norms past int64."""

    def __init__(self, inst: MonoidInstance, elems):
        super().__init__(elems)
        self.inst, at = inst, np.fromiter(chain.from_iterable(
            (aid, e, i) for i, m in enumerate(self) for aid, e in m.exps), np.int64).reshape(-1, 3).T
        self.aid, self.exp, self.pos = at[:, np.lexsort(at[1::-1])]

    @cached_property
    def groups(self) -> list[tuple[int, int, np.ndarray]]:
        if max(map(self.inst.norm, self), default=1) > np.iinfo(np.int64).max:
            raise OverflowError("csum_block: a norm of ks exceeds the int64 range")
        starts = np.flatnonzero(np.diff(self.aid, prepend=-1) | np.diff(self.exp, prepend=0))
        return [*zip(self.aid[starts].tolist(), self.exp[starts].tolist(), np.split(self.pos, starts[1:]))]


def csum_block(inst: MonoidInstance, ks, ms) -> np.ndarray:
    """csum(K, M) for every K in ``ks`` (rows) and M in ``ms`` (columns), as
    an int64 array of shape len(ks) x len(ms); a side not yet a
    :class:`CsumSide` is read into one.

    :func:`ramanujan_sum`'s Euler product applied to whole rows: for each
    atom power P**e of the row groups, the rows of the K that P**e exactly
    divides are multiplied by one column vector read off the exponents of P
    in the columns: N(P)**e - N(P)**(e-1) where M's exponent is at least e,
    -N(P)**(e-1) where it is e - 1, and 0 where it is lower; when no column
    holds P, the rows are multiplied by that scalar, -1 or 0.  An atom that
    does not divide K contributes 1.  Every partial product is at most N(K)
    in size, so OverflowError is raised when some N(K) exceeds int64.
    """
    ks, ms = (s if isinstance(s, CsumSide) else CsumSide(inst, s) for s in (ks, ms))
    spans = np.searchsorted(ms.aid, [(aid, aid + 1) for aid, _, _ in ks.groups]).tolist()
    out = np.ones((len(ks), len(ms)), np.int64)
    for (aid, e, rows), (lo, hi) in zip(ks.groups, spans):
        if lo == hi:  # no column holds P: the factor is -1 (e = 1) or 0 at every column
            out[rows] *= -(e == 1)
            continue
        q, me = inst.norms[aid], np.zeros(len(ms), np.int64)
        me[ms.pos[lo:hi]] = ms.exp[lo:hi]
        out[rows] *= np.where(me >= e, q**e - q ** (e - 1), np.where(me == e - 1, -(q ** (e - 1)), 0))
    return out


def chunk_width(n: int) -> int:
    """Rows or columns per :func:`csum_block` call against a fixed side of n
    elements: _CHUNK_ITEMS entries a block, but at least _MIN_CHUNK_WIDTH,
    as shorter per-atom passes do not pay for their indexing."""
    return max(_CHUNK_ITEMS // max(n, 1), _MIN_CHUNK_WIDTH)


def common_divisor_sum(inst: MonoidInstance, f: ArithFn, g: ArithFn, m: Element, k: Element):
    """Bilinear sum of f(D) g(K - D) over D below both M and K.

    With f = norm and g = mu this is exactly :func:`ramanujan_sum`.
    """
    _check_ring(f, g)
    return sum(f(d) * g(k.sub(d)) for d in inst.divisors(m.gcd(k)))


def jordan_like_local_form(inst: MonoidInstance, k: Element, m: Element, phi_k=None) -> int:
    """Closed form mu(K - G) * phi(K) / phi(K - G) with G = gcd(M, K), where
    phi is the order-1 totient, and phi(K) is ``phi_k`` when given.  Agrees
    with the divisor sum.  phi(K - G) is the product of phi(P**r) over the
    atoms P**e of K with r = e - min(e, exponent of P in M) >= 1; every atom
    norm is at least 2, so it is >= 1 and divides phi(K) exactly."""
    mexps = dict(m.exps)
    mu = phi_rest = 1
    for aid, e in k.exps:
        r = e - min(e, mexps.get(aid, 0))
        if r:
            q = inst.norms[aid]
            mu = -mu if r == 1 else 0
            phi_rest *= q**r - q ** (r - 1)
    if phi_k is None:
        phi_k = jordan_totient(inst, k, 1)
    return mu * phi_k // phi_rest


def divisor_sum_identity(inst: MonoidInstance, k: Element) -> IdentityReport:
    """Sum of csum(K, D) over the divisors D of K against the closed form
    norm(K) * prod over atoms P of K of (1 - 2 / norm(P)), compared exactly
    as the integer prod of norm(P)**(e - 1) * (norm(P) - 2) over the powers
    P**e in K."""
    lhs = sum(ramanujan_sum(inst, k, d) for d in inst.divisors(k))
    rhs = 1
    for aid, e in k.exps:
        q = inst.norms[aid]
        rhs *= q ** (e - 1) * (q - 2)
    return IdentityReport(lhs, rhs, lhs == rhs, context=f"k={k.exps}")


class DivisorDownset:
    """Divisor-closed elements with their divisor positions.

    ``div_idx[i]`` lists the positions in ``elems`` of the divisors of
    ``elems[i]``, in :meth:`MonoidInstance.divisors` order, so the
    complement of the t-th divisor is the t-th from the end; ``index`` maps
    each element to its position and ``norms`` holds their norms.  These
    take O(len(elems) + sum of tau(N)) memory and are built at once; a
    divisor of some element missing from ``elems`` raises ValueError.
    ``elems`` is a :class:`CsumSide`, read once for every :func:`csum_block`
    chunk the check suites evaluate against it; no csum value is stored.
    """

    def __init__(self, inst: MonoidInstance, elems):
        self.elems = CsumSide(inst, elems)
        self.norms = [inst.norm(e) for e in self.elems]
        self.index = index = {e: i for i, e in enumerate(self.elems)}
        try:
            self.div_idx = [[index[d] for d in inst.divisors(n)] for n in self.elems]
        except KeyError as exc:
            missing = exc.args[0]
            raise ValueError(f"elements are not divisor-closed: {missing!r} is missing") from None

    def definition(self, i: int) -> dict[int, int]:
        """csum(K, G) by its definition for K = ``elems[i]`` and every
        divisor G of K, keyed by the position of G.

        The weights N(D) * mu(K - D) are taken once over the divisor
        positions of K, reading K - D off the reversed list (the divisors
        are complement-symmetric); the value at G is their sum over the
        divisor positions of G, which are exactly the D below both G and K.
        """
        div_idx, norms, elems = self.div_idx, self.norms, self.elems
        idx = div_idx[i]
        weight = {d: norms[d] * mobius(elems[c]) for d, c in zip(idx, reversed(idx))}
        return {g: sum(weight[d] for d in div_idx[g]) for g in idx}


def divisibility_identity(inst: MonoidInstance, m: Element, n: Element) -> IdentityReport:
    """Sum of csum(D, M) over the divisors D of N: norm(N) when N <= M, else 0."""
    lhs = sum(ramanujan_sum(inst, d, m) for d in inst.divisors(n))
    rhs = inst.norm(n) if n.leq(m) else 0
    return IdentityReport(lhs, rhs, lhs == rhs, context=f"m={m.exps} n={n.exps}")


def first_argument_convolution(
    inst: MonoidInstance, f: ArithFn, g: ArithFn, h: ArithFn, k: Element, n: Element
) -> IdentityReport:
    """Convolving the bilinear sum over its first argument:

        sum_{D <= N} S_{f,g}(D, K) h(N - D)
            = sum_{D <= N, K} f(D) g(K - D) (1 * h)(N - D),

    both sides evaluated exactly.  f, g and h are evaluated once on each
    divisor of lcm(K, N); every other value is read by index, A - D at
    idx(A) - idx(D), and every sum adds its terms in ``divisors`` order
    (see :class:`DivisorLattice`)."""
    ring = _check_ring(f, g, h)
    lat = inst.lattice(k.lcm(n))
    fv, gv, hv, uv = (list(map(fn.fn, lat.elems)) for fn in (f, g, h, one(ring)))
    ik, i_n = lat.index[k.exps], lat.index[n.exps]
    # S_{f,g}(D, K) depends on D only through gcd(D, K), keyed in divisors order
    s_fg = {gd: _bilinear(lat, fv, gv, gd, ik) for gd in lat.below(lat.meet(i_n, ik))}
    lhs = sum(s_fg[lat.meet(d, ik)] * hv[i_n - d] for d in lat.below(i_n))
    rhs = sum(fv[d] * gv[ik - d] * _bilinear(lat, uv, hv, i_n - d, i_n - d) for d in s_fg)
    return IdentityReport(lhs, rhs, lhs == rhs, context=f"k={k.exps} n={n.exps}")


def second_argument_convolution(
    inst: MonoidInstance, f: ArithFn, g: ArithFn, h: ArithFn, m: Element, n: Element
) -> IdentityReport:
    """Convolving the bilinear sum over its second argument:

        sum_{D <= N} S_{f,g}(M, D) h(N - D) = sum_{D <= N, M} f(D) (g * h)(N - D),

    evaluated by index on the divisors of lcm(M, N), as the first is."""
    _check_ring(f, g, h)
    lat = inst.lattice(m.lcm(n))
    fv, gv, hv = (list(map(fn.fn, lat.elems)) for fn in (f, g, h))
    im, i_n = lat.index[m.exps], lat.index[n.exps]
    lhs = sum(_bilinear(lat, fv, gv, im, d) * hv[i_n - d] for d in lat.below(i_n))
    common = lat.below(lat.meet(i_n, im))
    rhs = sum(fv[d] * _bilinear(lat, gv, hv, i_n - d, i_n - d) for d in common)
    return IdentityReport(lhs, rhs, lhs == rhs, context=f"m={m.exps} n={n.exps}")


class _HeadScan:
    """Every element M with norm(M) <= bounds[-1], each once, with its bucket
    and its head: iterating yields int64 arrays (norm, bucket, head) in
    chunks of at most _CHUNK_ITEMS / 8 elements, as some ten arrays of that
    length are live per chunk.

    ``bounds`` is increasing, and M falls in bucket i, the least i with
    norm(M) <= bounds[i].  The merge walk in :func:`ramanujan_sum` stops at
    K's last atom, so csum(K, M) reads only the head of M: its pairs with
    atom id below ``cuts[i]``, one past the largest atom id of any K the
    bucket is evaluated against.  ``cuts`` is nonincreasing.

    The scan is breadth-first in the number of atoms: the children of M are
    M + P for every atom P at or past M's last atom with norm(M) * N(P) <=
    bound, so each element is reached once, from itself without its last
    atom.  An element whose atoms all lie below cuts[0] is *pure*: it gets
    an id in scan order, and the table keeps its parent's id and its last
    atom, from which :meth:`elements` decodes it.  The head of M at a cut
    c is M itself when M's last atom is below c, else the head of M's
    parent at c, so it is always pure, and each element carries its head id
    at every distinct cut.  The ids are positions, exact at any size.
    """

    def __init__(self, inst: MonoidInstance, bounds: list[int], cuts: list[int]):
        self.inst, self.bound = inst, bounds[-1]
        self._bounds = np.array(bounds, np.int64)
        levels = sorted(set(cuts), reverse=True)
        self._cuts = np.array(levels, np.int64)[:, None]
        self._level = np.array([levels.index(c) for c in cuts])  # bucket -> row of heads
        self._table = np.array([[-1], [-1]], np.int64)  # parent id, last atom
        self.n_pure = 1  # the identity, id 0
        self._exps = {0: ()}

    def __iter__(self) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        bound, step = self.bound, _CHUNK_ITEMS // 8
        if bound < 1:
            return
        self.inst.extend(bound)
        atoms = np.array(self.inst.norms[: bisect_right(self.inst.norms, bound)], np.int64)
        # the frontier: norm, first atom a child may add, and heads of the
        # elements of one level that have a child
        norm, first = np.ones(1, np.int64), np.zeros(1, np.int64)
        heads = np.zeros((len(self._cuts), 1), np.int64)
        yield self._chunk(norm, heads)
        if not atoms.size:
            return
        while norm.size:
            count = np.searchsorted(atoms, bound // norm, side="right") - first
            ends = np.cumsum(count)
            level = []
            for start in range(0, int(ends[-1]), step):
                pos = np.arange(start, min(start + step, int(ends[-1])))
                p = np.searchsorted(ends, pos, side="right")
                atom = first[p] + pos - (ends[p] - count[p])
                cnorm = norm[p] * atoms[atom]
                pure = atom < self._cuts[0]
                own = self.n_pure + np.cumsum(pure) - 1
                cheads = np.where(atom < self._cuts, own, heads[:, p])
                self._add(heads[0, p[pure]], atom[pure])
                yield self._chunk(cnorm, cheads)
                more = cnorm <= bound // atoms[atom]
                level.append((cnorm[more], atom[more], cheads[:, more]))
            norm, first, heads = (np.concatenate(a, axis=-1) for a in zip(*level))

    def _chunk(self, norm, heads):
        bucket = np.searchsorted(self._bounds, norm)
        return norm, bucket, heads[self._level[bucket], np.arange(len(norm))]

    def _add(self, parent, atom):
        n, m = self.n_pure, self.n_pure + len(parent)
        if m > self._table.shape[1]:
            table = np.empty((2, max(m, 2 * n)), np.int64)
            table[:, :n] = self._table[:, :n]
            self._table = table
        self._table[:, n:m] = parent, atom
        self.n_pure = m

    def elements(self, ids) -> list[Element]:
        """The pure elements with these ids, each decoded once up its parents."""
        memo, table = self._exps, self._table
        out = []
        for i in ids.tolist():
            chain, j = [], i
            while j not in memo:
                chain.append(j)
                j = int(table[0, j])
            exps = memo[j]
            for j in reversed(chain):
                aid = int(table[1, j])
                if exps and exps[-1][0] == aid:
                    exps = exps[:-1] + ((aid, exps[-1][1] + 1),)
                else:
                    exps += ((aid, 1),)
                memo[j] = exps
            out.append(Element(memo[i]))
        return out


def double_sum(inst: MonoidInstance, x, y, direct_budget: int = 10**6) -> DoubleSumReport:
    """Exact S(x, y) = sum of csum(K, M) over norm(M) <= x, norm(K) <= y:
    :func:`double_sums` at the one grid point (x, y)."""
    return double_sums(inst, [(x, y)], direct_budget)[0]


def double_sums(inst: MonoidInstance, grid, direct_budget: int = 10**6) -> list[DoubleSumReport]:
    """Exact S(x, y) for every (x, y) of ``grid``, one report per point in
    grid order.

    S(x, y) is always evaluated by the regrouping over pairs (D, A) with
    norm(D + A) <= y, which needs only counting queries:

        S(x, y) = sum_{n <= y} cnt[n] * n * count_up_to(x/n) * mertens(y/n).

    At every point with x * y within ``direct_budget`` the plain double sum
    is computed as well and must agree exactly; a mismatch raises for the
    last such point in grid order.  All those direct sums come from one
    numpy scan that enumerates each M once, up to the largest of their x,
    into counts of heads: csum(K, M) with norm(K) <= y reads M only on the
    atoms of norm <= y, so M's part on the atoms up to the largest y it is
    summed against serves every smaller y too.  Each distinct head's row
    over the K comes from :func:`csum_block` (:func:`_direct_sums`).  The
    regrouped values are evaluated from the last point back, so the first
    one sizes the counting tables for all the rest.
    """
    pts = [(x, y, _floor(x), _floor(y)) for x, y in grid]
    direct = _direct_sums(
        inst, {(xb, yb) for _, _, xb, yb in pts if xb >= 0 and yb >= 0 and xb * yb <= direct_budget}
    )
    c, alpha = inst.density.c, inst.density.alpha
    reports = []
    for x, y, xb, yb in reversed(pts):
        value = 0
        if xb >= 1 and yb >= 1:
            cnt = inst.norm_counts(yb)
            for n in range(1, yb + 1):
                c_n = int(cnt[n])
                if c_n:
                    value += c_n * n * inst.count_up_to(xb // n) * inst.mertens_up_to(yb // n)
        d = direct.get((xb, yb))
        if d is not None and d != value:
            raise ArithmeticError(
                f"double-sum cross-check failed at x={x}, y={y}: "
                f"direct {d} != regrouped {value}"
            )
        main = c * float(x) if c is not None else None
        residual = value - main if main is not None else None
        bound_ref = None
        if alpha is not None and xb >= 1 and yb >= 1:
            bound_ref = float(x) ** alpha * float(y) ** (2.0 - alpha)
        reports.append(DoubleSumReport(float(x), float(y), value, d, c, main, residual, bound_ref))
    return reports[::-1]


def _direct_sums(inst: MonoidInstance, points: set[tuple[int, int]]) -> dict[tuple[int, int], int]:
    """The plain double sum at every integer point (x, y) >= 0 of ``points``,
    from one scan of the elements M up to the largest x, against the K from
    :meth:`MonoidInstance.enumerate_up_to` the largest y.

    The distinct x are sorted into bucket bounds x_0 < x_1 < ..., and M falls
    in the bucket i of the least x_i >= norm(M); it counts towards every
    point with x >= x_i.  Those points ask for K up to Y_i, the largest of
    their y, so the bucket cuts the head of M at the atoms of norm <= Y_i,
    which serves every smaller y as well.  :class:`_HeadScan` enumerates
    every M once, and the multiplicity of each (bucket, head) is counted per
    chunk.  Each distinct head then gets one row of csum over all the K
    from :func:`csum_block`, :func:`chunk_width` heads a call; its prefix
    sums along K give every y, zeroed past the bucket's Y_i.

    As |csum(K, M)| <= N(K), a prefix entry is at most the sum of N(K)
    over norm(K) <= max y.  Every product and sum formed is for some y <=
    Y_i, so it is at most A_i = #{M: norm(M) <= x_i} * (sum of N(K) over
    norm(K) <= Y_i).  On the built-in instances at most tau(n) elements
    have norm n, so #{elements of norm <= t} <= t * (1 + ln t) and A_i <=
    x * y**2 * (1 + ln x) * (1 + ln y) at (x_i, Y_i): below 2**58 for
    every x * y <= 10**8.  These bounds are checked before any row is
    evaluated, and OverflowError is raised past int64.
    """
    if not points:
        return {}
    xs = sorted({x for x, _ in points})
    ys = [sorted({y for px, y in points if px >= x}) for x in xs]
    nb, yall = len(xs), ys[0]
    ks = CsumSide(inst, inst.enumerate_up_to(yall[-1]))
    knorms = np.array([inst.norm(k) for k in ks], np.int64)
    # one past the last atom of norm <= Y_i: every K of norm <= Y_i has its
    # atoms below it, and every such atom is itself a K
    scan = _HeadScan(inst, xs, [bisect_right(inst.norms, yi[-1]) for yi in ys])
    keys, counts = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
    for _, bucket, head in scan:
        key, count = np.unique(head * nb + bucket, return_counts=True)
        keys.append(key)
        counts.append(count)
    key, inv = np.unique(np.concatenate(keys), return_inverse=True)
    mult = np.zeros(len(key), np.int64)
    np.add.at(mult, inv, np.concatenate(counts))
    head, bucket = np.divmod(key, nb)
    at = np.searchsorted(knorms, yall, side="right")  # the K of norm <= y, per y
    reach = np.searchsorted(knorms, [yi[-1] for yi in ys], side="right")  # per bucket
    n_m = np.zeros(nb, np.int64)
    np.add.at(n_m, bucket, mult)
    sum_k = [0, *accumulate(knorms.tolist())]  # sum of N(K) over the first r K
    a_i = [m * sum_k[r] for m, r in zip(accumulate(n_m.tolist()), reach.tolist())]
    if max(*a_i, sum_k[-1]) > np.iinfo(np.int64).max:
        raise OverflowError("the direct double sum may exceed the int64 range")
    valid = np.greater_equal.outer([yi[-1] for yi in ys], yall)  # y <= Y_i, per bucket and y
    # the keys are head-major, so each pair's head position is sorted
    heads, hpos = np.unique(head, return_inverse=True)
    part = np.zeros((nb, len(yall)), np.int64)  # per bucket and y
    step = chunk_width(len(ks))
    for r0 in range(0, len(heads), step):
        chunk = heads[r0 : r0 + step]
        prefix = np.zeros((len(ks) + 1, len(chunk)), np.int64)
        np.cumsum(csum_block(inst, ks, scan.elements(chunk)), axis=0, out=prefix[1:])
        lo, hi = np.searchsorted(hpos, [r0, r0 + step])
        rows = prefix[at][:, hpos[lo:hi] - r0].T * valid[bucket[lo:hi]]
        np.add.at(part, bucket[lo:hi], rows * mult[lo:hi, None])
    np.cumsum(part, axis=0, out=part)  # each point sums the buckets up to its x
    col = {y: j for j, y in enumerate(yall)}
    return {
        (x, y): int(part[i, col[y]]) for i, x in enumerate(xs) for y in ys[i] if (x, y) in points
    }
