"""Reference values the benchmark computes for itself.

Nothing here calls diffgen: the checks must not trust the code they check
(and in particular never use ``diffgen.oracle``). Exact work is done with
``fractions.Fraction``; irrational references (fractional series, sines,
non-integer powers) use ``mpmath`` at ``MP_DIGITS`` significant digits.
"""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction

import mpmath

MP_DIGITS = 70
BIG_DIGITS = 50  # precision of the decimal field the workloads use

# Largest relative error a float result may carry: both float fields may
# lose 8 of their significant digits. Rational results must be exact.
TOLERANCE = {
    "float64": Fraction(1, 10**8),
    "bigdecimal": Fraction(1, 10**42),
}
# Unit roundoff of each float field.
UNIT_ROUNDOFF = {
    "float64": Fraction(1, 2**53),
    "bigdecimal": Fraction(5, 10**BIG_DIGITS),
}
# Rational results compared against mpmath values (series with irrational
# closed forms) are held to the mpmath working precision instead.
MP_TOLERANCE = Fraction(1, 10**(MP_DIGITS - 10))

mpmath.mp.dps = MP_DIGITS


def exact(x) -> Fraction:
    """The exact rational value of an int, Fraction, float or Decimal."""
    if isinstance(x, (Fraction, int, float, Decimal)):
        return Fraction(x)
    raise TypeError(f"not a scalar: {x!r}")


def to_mp(x):
    x = exact(x)
    return mpmath.mpf(x.numerator) / x.denominator


def base_coefficients(lam: Fraction, d: int, p: int) -> list[Fraction]:
    """beta_j = d! * [x^d] L_j(x), with L_j the Lagrange basis polynomials on
    the nodes lam - j, j = 0..p+d-1.

    This solves the moment system sum_j (lam-j)^k beta_j = d! delta_{k,d},
    k < p+d, since sum_j x_j^k L_j(x) = x^k. Each L_j numerator is the node
    polynomial divided by (x - x_j), done by synthetic division.
    """
    n = p + d
    nodes = [lam - j for j in range(n)]
    poly = [Fraction(1)]  # ascending coefficients of prod_m (x - x_m)
    for x_m in nodes:
        poly = [Fraction(0)] + poly
        for k in range(len(poly) - 1):
            poly[k] -= x_m * poly[k + 1]
    d_fact = math.factorial(d)
    beta = []
    for j, x_j in enumerate(nodes):
        carry = poly[n]  # quotient coefficients from the top down
        for k in range(n - 1, d, -1):
            carry = poly[k] + x_j * carry
        weight = (-1) ** j * math.factorial(j) * math.factorial(n - 1 - j)
        beta.append(Fraction(d_fact) * carry / weight)
    return beta


def moment(offsets, weights, k: int) -> Fraction:
    return sum((o**k * w for o, w in zip(offsets, weights)), Fraction(0))


def moment_defects(offsets, weights, order: int, count: int) -> list[int]:
    """The k < count where sum_j offsets_j^k weights_j != order! delta_{k,order}."""
    target = math.factorial(order)
    return [
        k for k in range(count)
        if moment(offsets, weights, k) != (target if k == order else 0)
    ]


def error_coefficient(alpha: Fraction, d: int, lam: Fraction, beta, m: int) -> Fraction:
    """a_m = (alpha/d) / (m+d)! * sum_j (lam-j)^(m+d) beta_j."""
    k = m + d
    nodes = [lam - j for j in range(len(beta))]
    return alpha / d * moment(nodes, beta, k) / math.factorial(k)


def error_scale(alpha: Fraction, d: int, lam: Fraction, beta, m: int) -> Fraction:
    """The size of the terms in the a_m moment sum: the scale a zero a_m is
    judged against."""
    k = m + d
    total = sum(abs(lam - j) ** k * abs(b) for j, b in enumerate(beta))
    return alpha / d * total / math.factorial(k)


def normwise_error(values, reference) -> Fraction:
    """max_j |values_j - reference_j| / max_j |reference_j| (exact)."""
    values = [exact(v) for v in values]
    reference = [exact(v) for v in reference]
    if len(values) != len(reference):
        return Fraction(10**9)
    scale = max(abs(r) for r in reference) or Fraction(1)
    return max(abs(v - r) for v, r in zip(values, reference)) / scale


def sum_error_allowance(field: str, reference: Fraction, scale: Fraction, terms: int) -> Fraction:
    """Error allowed in a float ``field`` for a ``terms``-long sum whose exact
    value is ``reference`` and whose terms add up in size to ``scale``: the
    field's tolerance relative to the value, plus what rounding each term of
    the sum may cost (so a value that is zero, or nearly zero, only because
    its terms cancel is not judged relative to itself)."""
    return TOLERANCE[field] * abs(reference) + terms * UNIT_ROUNDOFF[field] * scale


def poly_power(base, power: int) -> list[Fraction]:
    """Exact coefficients of P(z)**power by repeated convolution."""
    out = [Fraction(1)]
    for _ in range(power):
        acc = [Fraction(0)] * (len(out) + len(base) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(base):
                acc[i + j] += a * b
        out = acc
    return out


def grunwald_series(alpha: Fraction, count: int) -> list:
    """(-1)^k binomial(alpha, k), k < count, from mpmath."""
    a = to_mp(alpha)
    return [(-1) ** k * mpmath.binomial(a, k) for k in range(count)]


def power_series(base, gamma: Fraction, count: int) -> list:
    """First ``count`` coefficients of P(z)**gamma for P(0) > 0, from
    b0^gamma * sum_n binomial(gamma, n) u^n with u = P/b0 - 1 (mpmath)."""
    b = [to_mp(v) for v in base]
    g = to_mp(gamma)
    u = [v / b[0] for v in b]  # u_j for j >= 1; u_0 = 0 is never read
    out = [mpmath.mpf(0)] * count
    term = [mpmath.mpf(1)] + [mpmath.mpf(0)] * (count - 1)  # u^n, truncated
    for n in range(count):
        c = mpmath.binomial(g, n)
        for k in range(n, count):
            out[k] += c * term[k]
        nxt = [mpmath.mpf(0)] * count
        for i in range(n, count):
            if term[i]:
                for j in range(1, min(len(u), count - i)):
                    nxt[i + j] += term[i] * u[j]
        term = nxt
    scale = b[0] ** g
    return [v * scale for v in out]


def mp_normwise_error(values, reference) -> float:
    """Normwise relative error of ``values`` against mpmath ``reference``."""
    if len(values) != len(reference):
        return math.inf
    scale = max(abs(r) for r in reference) or mpmath.mpf(1)
    return float(max(abs(to_mp(v) - r) for v, r in zip(values, reference)) / scale)


def polynomial_derivative(coeffs, order: int) -> list[Fraction]:
    out = list(coeffs)
    for _ in range(order):
        out = [k * c for k, c in enumerate(out)][1:]
    return out


def poly_eval(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def max_grid_error(solution, exact_at):
    """max_i |solution_i - exact_at(i)|, as an mpmath number."""
    return max(abs(to_mp(u) - exact_at(i)) for i, u in enumerate(solution))
