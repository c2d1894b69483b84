"""Elementary functions on Decimal values.

Everything here follows the active decimal context: intermediates carry a few
guard digits, results are rounded back to the caller's precision on return.
sin/cos/pi are the classic series recipes; gamma is Spouge's expansion with
the term count scaled to the working precision.
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
    """Gamma function for positive arguments (Spouge's series)."""
    x = +x
    if not x > 0:
        raise ValueError("gamma requires a positive argument")
    if x == x.to_integral_value() and x < 10000:
        return +Decimal(math.factorial(int(x) - 1))
    with localcontext() as ctx:
        ctx.prec += 15
        a = int(1.3 * ctx.prec) + 2
        z = x - 1
        acc = (2 * pi()).sqrt()
        fact = 1
        for k in range(1, a):
            if k > 1:
                fact *= k - 1
            term = Decimal(a - k) ** (Decimal(2 * k - 1) / 2) * Decimal(a - k).exp()
            term /= fact * (z + k)
            acc += term if k % 2 else -term
        za = z + a
        result = za ** (z + Decimal(1) / 2) * (-za).exp() * acc
    return +result
