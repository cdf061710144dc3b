"""Generalized Ramanujan sums and the identity / asymptotics machinery.

The central quantity is the exact integer

    csum(K, M) = sum over D below both M and K of norm(D) * mu(K - D),

together with the classical identities it satisfies (divisor-sum and
divisibility identities, the two convolution identities for the general
bilinear sums), the norm-ordered series whose limit is -c * Lambda(K), the
truncated zeta function, and the one- and two-parameter partial sums whose
growth the experiments measure.

Exact values stay exact: integer sums are evaluated in integer arithmetic,
and floats only enter where logarithms or densities do.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

import numpy as np

from .arith import ArithFn, _check_ring, convolve, jordan_totient, mobius, one, von_mangoldt
from .monoid import Element, MonoidInstance, _floor


@dataclass(frozen=True)
class IdentityReport:
    lhs: object
    rhs: object
    passed: bool
    context: str = ""


@dataclass(frozen=True)
class DoubleSumReport:
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


def common_divisor_sum(inst: MonoidInstance, f: ArithFn, g: ArithFn, m: Element, k: Element):
    """Bilinear sum of f(D) g(K - D) over D below both M and K.

    With f = norm and g = mu this is exactly :func:`ramanujan_sum`.
    """
    _check_ring(f, g)
    return sum(f(d) * g(k.sub(d)) for d in inst.divisors(m.gcd(k)))


def jordan_like_local_form(inst: MonoidInstance, k: Element, m: Element) -> int:
    """Closed form mu(K - G) * phi(K) / phi(K - G) with G = gcd(M, K), where
    phi is the order-1 totient.  Agrees with the divisor sum.

    Total and exact: every atom norm is at least 2, so phi(K - G) >= 1, and
    atom by atom the ratio is phi(P**k) where G takes the whole power P**k
    of K, else norm(P)**g with g the exponent of P in G."""
    rest = k.sub(k.gcd(m))
    return mobius(rest) * jordan_totient(inst, k, 1) // jordan_totient(inst, rest, 1)


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
    """A divisor-closed list of elements with the divisor positions of each.

    ``div_idx[i]`` lists the positions in ``elems`` of the divisors of
    ``elems[i]``.  Memory is O(len(elems) + sum of tau(N)); no table over
    pairs is built.  Raises ValueError when a divisor of some element is
    missing from ``elems``.
    """

    def __init__(self, inst: MonoidInstance, elems):
        self.inst = inst
        self.elems = list(elems)
        index = {e: i for i, e in enumerate(self.elems)}
        try:
            self.div_idx = [[index[d] for d in inst.divisors(n)] for n in self.elems]
        except KeyError as exc:
            missing = exc.args[0]
            raise ValueError(f"elements are not divisor-closed: {missing!r} is missing") from None

    def zeta_rows(self, block: np.ndarray) -> Iterator[np.ndarray]:
        """The zeta transform of ``block`` over the downset: for each N in
        ``elems``, in order, the int64 sum of ``block[i]`` over the positions
        i of N's divisors.  ``block`` is indexed by ``elems`` along axis 0."""
        for idx in self.div_idx:
            yield block[idx].sum(axis=0, dtype=np.int64)

    def divisibility_sums(self, m: Element) -> list[int]:
        """Left side of the divisibility identity against one M, for every N
        in ``elems``: the sum of csum(D, M) over the divisors D of N.

        The column csum(D, M) is evaluated once for every D, then summed per
        N by :meth:`zeta_rows`."""
        col = np.array([ramanujan_sum(self.inst, d, m) for d in self.elems], np.int64)
        return [int(s) for s in self.zeta_rows(col)]


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

    both sides evaluated exactly."""
    ring = _check_ring(f, g, h)
    unit = one(ring)
    divs = inst.divisors(n)
    lhs = sum(common_divisor_sum(inst, f, g, d, k) * h(c) for d, c in zip(divs, reversed(divs)))
    rhs = sum(
        f(d) * g(k.sub(d)) * convolve(inst, unit, h, n.sub(d))
        for d in inst.divisors(n.gcd(k))
    )
    return IdentityReport(lhs, rhs, lhs == rhs, context=f"k={k.exps} n={n.exps}")


def second_argument_convolution(
    inst: MonoidInstance, f: ArithFn, g: ArithFn, h: ArithFn, m: Element, n: Element
) -> IdentityReport:
    """Convolving the bilinear sum over its second argument:

        sum_{D <= N} S_{f,g}(M, D) h(N - D) = sum_{D <= N, M} f(D) (g * h)(N - D)."""
    _check_ring(f, g, h)
    divs = inst.divisors(n)
    lhs = sum(common_divisor_sum(inst, f, g, m, d) * h(c) for d, c in zip(divs, reversed(divs)))
    rhs = sum(f(d) * convolve(inst, g, h, n.sub(d)) for d in inst.divisors(n.gcd(m)))
    return IdentityReport(lhs, rhs, lhs == rhs, context=f"m={m.exps} n={n.exps}")


def harmonic_partial(inst: MonoidInstance, x, exact: bool = False):
    """Sum of 1/norm over elements with norm <= x.

    Exact mode returns a Fraction (denominators grow fast; intended for
    small x), otherwise a float from the cached prefix sums.
    """
    if not exact:
        return inst.harmonic_up_to(x)
    b = _floor(x)
    if b < 1:
        return Fraction(0)
    cnt = inst.norm_counts(b)
    total = Fraction(0)
    for n in np.flatnonzero(cnt[: b + 1]).tolist():
        total += Fraction(int(cnt[n]), n)
    return total


def _scan_heads(inst: MonoidInstance, bounds: list[int], cuts: list[int]):
    """Yield (norm(M), M's pairs, bucket i, head of M) for every M with
    norm(M) <= bounds[-1], in :meth:`MonoidInstance.scan_up_to` order.

    ``bounds`` is increasing, and M falls in bucket i, the least i with
    norm(M) <= bounds[i].  The merge walk in :func:`ramanujan_sum` stops at
    K's last atom, so csum(K, M) reads only the head of M: its pairs with
    atom id below ``cuts[i]``, one past the largest atom id of any K the
    bucket is evaluated against (a prefix, as the pairs are id-sorted).
    """
    # As a 1-tuple, a cut sorts after every pair (id, e) with id < cut[0]
    # and before the rest, so bisect finds the end of the head.
    cuts = [(c,) for c in cuts]
    for norm, path in inst.scan_up_to(bounds[-1]):
        i = bisect_left(bounds, norm)
        yield norm, path, i, path[: bisect_left(path, cuts[i])]


def residue_series(inst: MonoidInstance, k: Element, x, mode: str = "grouped") -> float:
    """Norm-ordered partial sum of csum(K, M)/norm(M); estimates -c * Lambda(K).

    The grouped mode rewrites the partial sum as
    sum over D <= K of mu(K - D) * H(x / norm(D)) with H the harmonic sum,
    which is the same value at a fraction of the cost; the direct mode sums
    term by term in nondecreasing norm.
    """
    return residue_scan(inst, k, [x], mode)[0]


def residue_scan(inst: MonoidInstance, k: Element, points, mode: str = "grouped") -> list[float]:
    """[residue_series(inst, k, x, mode) for x in points], with one scan.

    The direct mode scans to the largest point once, memoizing csum(K, M)
    per head of M (:func:`_scan_heads`), and reads every point off one
    running sum over the norms, so each value is added in the same order as
    in a scan to that point alone.  The grouped mode evaluates the largest
    point first, which sizes the harmonic table for all the rest.
    """
    if k.is_zero:
        raise ValueError("k must be nonzero")
    if mode not in ("grouped", "direct"):
        raise ValueError(f"unknown mode {mode!r}")
    bs = [_floor(x) for x in points]
    ends = sorted({b for b in bs if b >= 1}, reverse=True)
    if not ends:
        return [0.0] * len(bs)
    totals = dict.fromkeys(ends, 0.0)
    if mode == "grouped":
        divs = inst.divisors(k)
        for b in ends:
            for d, c in zip(divs, reversed(divs)):
                mu = mobius(c)
                if mu:
                    totals[b] += mu * inst.harmonic_up_to(b // inst.norm(d))
    else:
        per_norm = [0] * (ends[0] + 1)
        rows = {}
        for norm, _, _, head in _scan_heads(inst, [ends[0]], [1 + k.exps[-1][0]]):
            row = rows.get(head)
            if row is None:
                row = rows[head] = ramanujan_sum(inst, k, Element(head))
            per_norm[norm] += row
        total, start = 0.0, 1
        for b in reversed(ends):
            for n in range(start, b + 1):
                if per_norm[n]:
                    total += per_norm[n] / n
            totals[b], start = total, b + 1
    return [totals.get(b, 0.0) for b in bs]


def residue_target(inst: MonoidInstance, k: Element) -> float | None:
    """-c * Lambda(K), when the instance density is known."""
    c = inst.density.c
    if c is None:
        return None
    return -c * von_mangoldt(inst, k)


@dataclass(frozen=True)
class ZetaTruncation:
    value: object            # float, or complex for complex s
    tail_bound: float | None  # c * x**(1 - sigma) / (sigma - 1), when c is known


def zeta_partial(inst: MonoidInstance, s, x) -> ZetaTruncation:
    """Truncated zeta sum of norm(A)**(-s) over norm(A) <= x."""
    sigma = s.real if isinstance(s, complex) else float(s)
    b = _floor(x)
    if b < 1:
        return ZetaTruncation(0.0, None)
    cnt = inst.norm_counts(b)[: b + 1]
    ns = np.arange(b + 1, dtype=np.float64)
    ns[0] = 1.0  # dummy, masked below
    weights = ns ** (-s)
    weights[0] = 0
    value = (cnt * weights).sum().item()
    tail = None
    c = inst.density.c
    if c is not None and sigma > 1:
        tail = c * float(x) ** (1.0 - sigma) / (sigma - 1.0)
    return ZetaTruncation(value, tail)


def fixed_k_partial(inst: MonoidInstance, k: Element, x) -> int:
    """Exact sum of csum(K, M) over norm(M) <= x.

    Regrouped over the decompositions of K: every M splits uniquely as
    D + C with D = gcd(M, K)-part, giving
    sum over D <= K of norm(D) mu(K - D) count_up_to(x / norm(D)).
    """
    b = _floor(x)
    if b < 1:
        return 0
    total = 0
    divs = inst.divisors(k)
    for d, c in zip(divs, reversed(divs)):
        mu = mobius(c)
        if mu:
            nd = inst.norm(d)
            total += nd * mu * inst.count_up_to(b // nd)
    return total


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
    scan that enumerates each M once, up to the largest of their x: csum(K, M)
    with norm(K) <= y reads M only on the atoms of norm <= y, so M's part on
    the atoms up to the largest y it is summed against serves every smaller
    y too (:func:`_direct_sums`).  The regrouped values are evaluated from
    the last point back, so the first one sizes the counting tables for all
    the rest.
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
    from one scan of the elements up to the largest x (or y).

    The distinct x are sorted into bucket bounds x_0 < x_1 < ..., and M falls
    in the bucket i of the least x_i >= norm(M); it counts towards every
    point with x >= x_i.  Those points ask for K up to Y_i, the largest of
    their y, so the bucket cuts the head of M at the atoms of norm <= Y_i
    (:func:`_scan_heads`), which serves every smaller y as well.  The scan
    counts the multiplicity of each (bucket, head); each distinct head then
    gets one row of csum over the norm-sorted K, kept as prefix sums, so any
    y reads one entry.  Larger x_i only ever have a smaller Y_i, so walking
    the buckets in order computes each head's row first at its longest.
    """
    if not points:
        return {}
    xs = sorted({x for x, _ in points})
    ys = [sorted({y for px, y in points if px >= x}) for x in xs]
    ymax = ys[0][-1]
    inst.extend(ymax)
    # one past the last atom of norm <= Y_i: every K of norm <= Y_i has its
    # atoms below it, and every such atom is itself a K
    bounds, cuts = xs, [bisect_right(inst.norms, yi[-1]) for yi in ys]
    if ymax > xs[-1]:  # the K reach past every M: one more bucket, read as K only
        bounds, cuts = xs + [ymax], cuts + [0]
    counts = [{} for _ in bounds]
    kpaths = []
    for norm, path, i, head in _scan_heads(inst, bounds, cuts):
        if norm <= ymax:
            kpaths.append((norm, path))
        bucket = counts[i]
        bucket[head] = bucket.get(head, 0) + 1
    kpaths.sort()
    knorms = [n for n, _ in kpaths]
    ks = [Element(path) for _, path in kpaths]
    rows = {}
    running = dict.fromkeys(ys[0], 0)  # sum over the buckets so far, per y
    direct = {}
    for i, x in enumerate(xs):
        at = [bisect_right(knorms, y) for y in ys[i]]
        part = [0] * len(at)
        for head, mult in counts[i].items():
            row = rows.get(head)
            if row is None:
                m = Element(head)
                row = rows[head] = list(
                    accumulate((ramanujan_sum(inst, k, m) for k in ks[: at[-1]]), initial=0)
                )
            for j, pos in enumerate(at):
                part[j] += mult * row[pos]
        for y, v in zip(ys[i], part):
            running[y] += v
            if (x, y) in points:
                direct[x, y] = running[y]
    return direct


def mobius_pair_profile(inst: MonoidInstance, ymax) -> list[int]:
    """prefix[t] = sum of mu(A) over pairs (D, A) with norm(D + A) <= t,
    for t = 0 .. floor(ymax).  The value is 1 for every t >= 1: the inner
    sum over A below a fixed C vanishes unless C is the identity."""
    b = _floor(ymax)
    out = [0] * (b + 1)
    if b < 1:
        return out
    for norm, path in inst.scan_up_to(b):
        e = Element(path)
        out[norm] += sum(mobius(d) for d in inst.divisors(e))
    for t in range(1, b + 1):
        out[t] += out[t - 1]
    return out


def density_fit(samples) -> tuple[float, float | None]:
    """Fit count_up_to(x) ~ c * x + O(x**alpha) from (x, count) samples.

    c is the count-weighted mean ratio over the larger half of the sample;
    alpha is the least-squares slope of log|count - c*x| against log x, or
    None when the residuals vanish.  Both are diagnostics, not certified.
    """
    pts = sorted((float(x), float(cnt)) for x, cnt in samples)
    if len(pts) < 3:
        raise ValueError("need at least 3 sample points")
    top = pts[len(pts) // 2 :]
    c_hat = sum(cnt for _, cnt in top) / sum(x for x, _ in top)
    logs = [
        (math.log(x), math.log(abs(cnt - c_hat * x)))
        for x, cnt in pts
        if abs(cnt - c_hat * x) > 0
    ]
    alpha_hat = None
    if len(logs) >= 2:
        xs, ys = zip(*logs)
        alpha_hat = float(np.polyfit(xs, ys, 1)[0])
    return c_hat, alpha_hat


def fit_bound_constant(reports, alpha: float) -> float:
    """Smallest C with |S - c*x| <= C * x**alpha * y**(2 - alpha) over a grid."""
    worst = 0.0
    for r in reports:
        if r.residual is None:
            raise ValueError("reports must carry residuals (known density)")
        ref = r.x**alpha * r.y ** (2.0 - alpha)
        worst = max(worst, abs(r.residual) / ref)
    return worst
