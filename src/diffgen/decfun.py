"""Elementary functions on Decimal values.

Everything here follows the active decimal context: intermediates carry a few
guard digits, results are rounded back to the caller's precision on return.
sin/cos/pi are the classic series recipes; gamma is Spouge's expansion with
its term count and guard digits scaled to the working precision.
"""

from __future__ import annotations

import math
from decimal import Decimal, getcontext, localcontext

_pi_cache: dict[int, Decimal] = {}


def pi() -> Decimal:
    """pi at the current context precision."""
    prec = getcontext().prec
    cached = _pi_cache.get(prec)
    if cached is not None:
        return +cached
    with localcontext() as ctx:
        ctx.prec = prec + 8
        three = Decimal(3)
        lasts, t, s = Decimal(0), three, 3
        n, na, d, da = 1, 0, 0, 24
        while s != lasts:
            lasts = s
            n, na = n + na, na + 8
            d, da = d + da, da + 32
            t = (t * n) / d
            s += t
    result = +s
    _pi_cache[prec] = result
    return result


def _reduce(x: Decimal) -> Decimal:
    # fold into [-pi, pi]; widen for large arguments so the fold stays sharp
    ctx = getcontext()
    magnitude = max(0, x.adjusted())
    with localcontext() as wide:
        wide.prec = ctx.prec + 6 + magnitude
        two_pi = 2 * pi()
        k = (x / two_pi).to_integral_value()
        x = x - k * two_pi
    return x


def _taylor(x: Decimal, odd: int) -> Decimal:
    """sum_k (-1)^k x^(2k + odd) / (2k + odd)! after argument reduction: the
    sine for odd = 1, the cosine for odd = 0."""
    with localcontext() as ctx:
        ctx.prec += 10
        x = _reduce(+x)
        term = total = x if odd else Decimal(1)
        x2, i, sign = x * x, odd, 1
        while term:
            i += 2
            term = term * x2 / (i * (i - 1))
            sign = -sign
            total += term if sign > 0 else -term
            if term and total and term.adjusted() < total.adjusted() - ctx.prec:
                break
    return +total


def sin(x: Decimal) -> Decimal:
    """Sine by Taylor series after argument reduction."""
    return _taylor(x, 1)


def cos(x: Decimal) -> Decimal:
    """Cosine by Taylor series after argument reduction."""
    return _taylor(x, 0)


def gamma(x: Decimal) -> Decimal:
    """Gamma function for positive arguments, within one ulp (Spouge's series).

    Below 1, Gamma(x) = Gamma(x + 1) / x. With a terms, Spouge's relative
    error is below (2 pi)^-(a + 1/2): a = (prec + 3) / log10(2 pi), rounded
    up, keeps it below 10^-(prec + 3). The alternating terms c_k / (z + k)
    outgrow their sum by up to 0.55 a digits (the largest ratio over z >= 0,
    measured for a <= 400), so the sum carries 0.6 a guard digits at every
    argument. Each coefficient
    c_k = (a - k)^(k - 1/2) e^(a - k) / (k - 1)! is the exact integer
    (a - k)^k over (k - 1)! sqrt(a - k), times a power of one e.
    """
    x = +x
    if not x > 0:
        raise ValueError("gamma requires a positive argument")
    if x == x.to_integral_value() and x < 10000:
        return +Decimal(math.factorial(int(x) - 1))
    with localcontext() as ctx:
        a = math.ceil((ctx.prec + 3) / math.log10(2 * math.pi))
        ctx.prec += 3 * a // 5 + 5  # 0.6 a for the cancellation, 5 for the roundings of a terms
        z = x - 1 if x >= 1 else x
        e = Decimal(1).exp()
        e_power, fact, acc = Decimal(1), math.factorial(a - 1), Decimal(0)
        for k in range(a - 1, 0, -1):  # e^(a - k) and (k - 1)! one factor at a time
            e_power *= e
            fact //= k
            term = Decimal((a - k) ** k) / fact / Decimal(a - k).sqrt() * e_power / (z + k)
            acc += term if k % 2 else -term
        za = z + a
        result = za ** (z + Decimal("0.5")) * (-za).exp() * ((2 * pi()).sqrt() + acc)
        if x < 1:
            result /= x
    return +result
