"""The norm-ordered series and partial sums of csum(K, M).

The series whose limit is -c * Lambda(K) (:func:`residue_series`, grouped
over the divisors of K or summed term by term), the harmonic and truncated
zeta sums, the one-parameter partial sums over M, the Möbius pair profile,
and the diagnostic fits of the counting function and of the double-sum
bound.  Exact values stay exact; floats enter only where logarithms,
quotients or densities do.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .arith import _mobius_terms, mobius, von_mangoldt
from .csums import CsumSide, _HeadScan, csum_block
from .monoid import Element, MonoidInstance, _floor, _quotient_sums


def harmonic_partial(inst: MonoidInstance, x, exact: bool = False):
    """Sum of 1/norm over elements with norm <= x.

    Exact mode returns a Fraction (denominators grow fast; intended for
    small x), otherwise the float :meth:`MonoidInstance.harmonic_up_to`.
    """
    if not exact:
        return inst.harmonic_up_to(x)
    from fractions import Fraction
    b = _floor(x)
    if b < 1:
        return Fraction(0)
    cnt = inst.norm_counts(b)
    return sum(Fraction(int(cnt[n]), n) for n in np.flatnonzero(cnt[: b + 1]).tolist())


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

    The direct mode scans to the largest point once (:class:`_HeadScan`,
    one bucket, cut one past K's last atom), evaluates csum(K, M) once per
    distinct head of M in each chunk, and sums it exactly per norm.
    csum(K, M) is the product of the csum(P**e, M) over the powers P**e in
    K, each at most N(P)**(exponent of P in M) in size, so every partial
    product is at most norm(M) <= x in int64 whatever N(K) is; a power with
    N(P)**(e - 1) > x makes every term 0.  Every point is then read off one
    left-to-right float sum of per_norm[n] / n (:func:`monoid._quotient_sums`),
    so each value is added in the same order as in a scan to that point
    alone.  Each quotient rounds as Python's int / int does: at most tau(n)
    elements have norm n on the built-in instances and |csum(K, M)| <=
    norm(M), so |per_norm[n]| <= tau(n) * n < 2**53 for every n <= 10**12.
    The grouped mode reads H(t) for every t = floor(x / norm(D)) with
    mu(K - D) != 0 off one such sum over ``counts``, sized once to the
    largest t, and adds the mu * H(t) of each point in ``divisors`` order.
    """
    if k.is_zero:
        raise ValueError("k must be nonzero")
    if mode not in ("grouped", "direct"):
        raise ValueError(f"unknown mode {mode!r}")
    bs = [_floor(x) for x in points]
    ends = sorted({b for b in bs if b >= 1})
    if not ends:
        return [0.0] * len(bs)
    if mode == "grouped":
        terms = _mobius_terms(inst, k)
        ts = sorted({b // nd for b in ends for _, nd in terms})
        h = dict(zip(ts, _quotient_sums(inst.norm_counts(ts[-1]), ts)))
        totals = {b: sum((mu * h[b // nd] for mu, nd in terms), 0.0) for b in ends}
    else:
        per_norm = np.zeros(ends[-1] + 1, np.int64)
        if all(inst.norms[aid] ** (e - 1) <= ends[-1] for aid, e in k.exps):
            powers = CsumSide(inst, [Element((p,)) for p in k.exps])
            scan = _HeadScan(inst, [ends[-1]], [1 + k.exps[-1][0]])
            for norm, _, head in scan:
                heads, at = np.unique(head, return_inverse=True)
                csum = csum_block(inst, powers, scan.elements(heads)).prod(axis=0)
                np.add.at(per_norm, norm, csum[at])
        totals = dict(zip(ends, _quotient_sums(per_norm, ends)))
    return [totals.get(b, 0.0) for b in bs]


def residue_target(inst: MonoidInstance, k: Element) -> float | None:
    """-c * Lambda(K), when the instance density is known."""
    c = inst.density.c
    if c is None:
        return None
    return -c * von_mangoldt(inst, k)


class ZetaTruncation(NamedTuple):
    value: object            # float, or complex for complex s
    tail_bound: float | None  # c * x**(1 - sigma) / (sigma - 1), when c is known


def zeta_partial(inst: MonoidInstance, s, x) -> ZetaTruncation:
    """Truncated zeta sum of norm(A)**(-s) over norm(A) <= x."""
    sigma = s.real if isinstance(s, complex) else float(s)
    b = _floor(x)
    if b < 1:
        return ZetaTruncation(0.0, None)
    value = next(_quotient_sums(inst.norm_counts(b), [b], s))
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
    return sum(nd * mu * inst.count_up_to(b // nd) for mu, nd in _mobius_terms(inst, k))


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
