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
from dataclasses import dataclass
from fractions import Fraction

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


def jordan_like_local_form(inst: MonoidInstance, k: Element, m: Element) -> int | None:
    """Closed form mu(K - G) * phi(K) / phi(K - G) with G = gcd(M, K), where
    phi is the order-1 totient; defined whenever the division is exact and
    the denominator is nonzero, else None.  Agrees with the divisor sum."""
    g = k.gcd(m)
    den = jordan_totient(inst, k.sub(g), 1)
    if den == 0:
        return None
    num = mobius(k.sub(g)) * jordan_totient(inst, k, 1)
    if num % den:
        return None
    return num // den


def divisor_sum_identity(inst: MonoidInstance, k: Element) -> IdentityReport:
    """Sum of csum(K, D) over the divisors D of K against the closed form
    norm(K) * prod over atoms p of K of (1 - 2 / norm(p)), compared exactly."""
    lhs = sum(ramanujan_sum(inst, k, d) for d in inst.divisors(k))
    rhs = Fraction(inst.norm(k))
    for aid, _ in k.exps:
        rhs *= 1 - Fraction(2, inst.norms[aid])
    return IdentityReport(lhs, rhs, Fraction(lhs) == rhs, context=f"k={k.exps}")


def divisibility_sums(inst: MonoidInstance, ms, n: Element) -> list[tuple[int, int]]:
    """(lhs, rhs) of the divisibility identity for each M in ``ms`` against
    one N: the sum of csum(D, M) over the divisors D of N, and norm(N) when
    N <= M, else 0.  The divisors and norm of N are computed once."""
    divs = inst.divisors(n)
    nn = inst.norm(n)
    return [
        (sum([ramanujan_sum(inst, d, m) for d in divs]), nn if n.leq(m) else 0) for m in ms
    ]


def divisibility_identity(inst: MonoidInstance, m: Element, n: Element) -> IdentityReport:
    """Sum of csum(D, M) over the divisors D of N: norm(N) when N <= M, else 0."""
    ((lhs, rhs),) = divisibility_sums(inst, (m,), n)
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
    lhs = sum(common_divisor_sum(inst, f, g, d, k) * h(n.sub(d)) for d in inst.divisors(n))
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
    lhs = sum(common_divisor_sum(inst, f, g, m, d) * h(n.sub(d)) for d in inst.divisors(n))
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


def residue_series(inst: MonoidInstance, k: Element, x, mode: str = "grouped") -> float:
    """Norm-ordered partial sum of csum(K, M)/norm(M); estimates -c * Lambda(K).

    The grouped mode rewrites the partial sum as
    sum over D <= K of mu(K - D) * H(x / norm(D)) with H the harmonic sum,
    which is the same value at a fraction of the cost; the direct mode sums
    term by term in nondecreasing norm.
    """
    if k.is_zero:
        raise ValueError("k must be nonzero")
    b = _floor(x)
    if b < 1:
        return 0.0
    if mode == "grouped":
        total = 0.0
        for d in inst.divisors(k):
            mu = mobius(k.sub(d))
            if mu:
                total += mu * inst.harmonic_up_to(b // inst.norm(d))
        return total
    if mode == "direct":
        per_norm = [0] * (b + 1)
        for norm, path in inst.scan_up_to(b):
            per_norm[norm] += ramanujan_sum(inst, k, Element(path))
        total = 0.0
        for n in range(1, b + 1):
            if per_norm[n]:
                total += per_norm[n] / n
        return total
    raise ValueError(f"unknown mode {mode!r}")


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
    for d in inst.divisors(k):
        mu = mobius(k.sub(d))
        if mu:
            nd = inst.norm(d)
            total += nd * mu * inst.count_up_to(b // nd)
    return total


def double_sum(inst: MonoidInstance, x, y, direct_budget: int = 10**6) -> DoubleSumReport:
    """Exact S(x, y) = sum of csum(K, M) over norm(M) <= x, norm(K) <= y.

    Always evaluated by the regrouping over pairs (D, A) with
    norm(D + A) <= y, which needs only counting queries:

        S(x, y) = sum_{n <= y} cnt[n] * n * count_up_to(x/n) * mertens(y/n).

    When x * y is within ``direct_budget`` the plain double sum is computed
    as well and must agree exactly; a mismatch raises.
    """
    xb, yb = _floor(x), _floor(y)
    value = 0
    if xb >= 1 and yb >= 1:
        cnt = inst.norm_counts(max(xb, yb))
        for n in range(1, yb + 1):
            c_n = int(cnt[n])
            if c_n:
                value += c_n * n * inst.count_up_to(xb // n) * inst.mertens_up_to(yb // n)
    direct = None
    if xb >= 0 and yb >= 0 and xb * yb <= direct_budget:
        ks = list(inst.enumerate_up_to(yb))
        direct = 0
        for _, path in inst.scan_up_to(xb):
            m = Element(path)
            for k in ks:
                direct += ramanujan_sum(inst, k, m)
        if direct != value:
            raise ArithmeticError(
                f"double-sum cross-check failed at x={x}, y={y}: "
                f"direct {direct} != regrouped {value}"
            )
    c, alpha = inst.density.c, inst.density.alpha
    main = c * float(x) if c is not None else None
    residual = value - main if main is not None else None
    bound_ref = None
    if alpha is not None and xb >= 1 and yb >= 1:
        bound_ref = float(x) ** alpha * float(y) ** (2.0 - alpha)
    return DoubleSumReport(float(x), float(y), value, direct, c, main, residual, bound_ref)


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
