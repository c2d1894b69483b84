"""Weight-series expansion of difference-formula generators.

A generator is a base polynomial P(z) raised to the exponent gamma = alpha/d.
For integer gamma >= 0 the power is a convolution; otherwise the series
coefficients come from the J.C.P. Miller recurrence

    m * beta_0 * w_m = sum_{k=1}^{min(m, deg)} (k*(gamma+1) - m) * beta_k * w_{m-k},

seeded with w_0 = beta_0^gamma. The recurrence is a lower-triangular banded
system A w = w_0 e_0 of bandwidth deg: A[0, 0] = 1, A[m, m] = m * beta_0 and
A[m, m-k] = -(k*(gamma+1) - m) * beta_k, solved by forward substitution on
the field's own Python numbers, with no array. Double precision first
divides row m by m, so that no partial sum holds m times a weight, and sums
each row from k = deg down to 1: the same bits on every IEEE host, at any
truncation. The Grünwald weights are the P(z) = 1 - z case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .explicit_form import CoefficientVector, _finite
from .scalars import Field, Scalar, _integer, _over_common_denominator, field_of

__all__ = [
    "WeightSeries",
    "ConvergenceDiagnostic",
    "grunwald_weights",
    "miller_expand",
    "poly_power_int",
    "convergence_diagnostic",
]


@dataclass(frozen=True)
class WeightSeries:
    """Truncated expansion w_0..w_{K-1} of P(z)**gamma."""

    gamma: Scalar
    base: tuple[Scalar, ...]
    weights: tuple[Scalar, ...]
    truncation: int


def grunwald_weights(alpha, truncation: int, field: Field | None = None) -> tuple[Scalar, ...]:
    """First ``truncation`` binomial weights of (1 - z)**alpha.

    g_0 = 1 and g_k = g_{k-1} * (k - 1 - alpha) / k. A non-finite alpha
    raises ValueError. A double-precision weight that is not finite raises
    OverflowError naming its index. The product g_{k-1} * (k - 1 - alpha) is
    rounded before the division by k, so it can leave the range first: at
    alpha = 3001/2 weight 271 is refused, though the exact weights stay in
    range up to 274.
    """
    _integer("truncation", truncation, 1)
    if field is None:
        field = field_of(alpha)
    with field.context():
        alpha = _finite("alpha", alpha, field)
        weights = [field.one]
        for k in range(1, truncation):
            weights.append(weights[-1] * (k - 1 - alpha) / k)
    if field.name == "float64":
        _refuse_non_finite(weights, f"(1 - z)^{alpha}")
    return tuple(weights)


def miller_expand(base, gamma, truncation: int, field: Field | None = None) -> WeightSeries:
    """Expand P(z)**gamma to ``truncation`` weights.

    An integer gamma >= 0 takes the truncated convolution (base[0] may be 0).
    Any other gamma solves the banded triangular system of the module
    docstring. Fractional gamma needs base[0] > 0 (real expansion); in the
    rational field it additionally needs base[0] to be a perfect power,
    otherwise ExactnessError signals that the caller must pick a float field.
    A non-finite gamma or base coefficient raises ValueError; a double-precision
    weight that overflows raises OverflowError naming its index.
    """
    base = tuple(base)
    if not base:
        raise ValueError("base polynomial must have at least one coefficient")
    _integer("truncation", truncation, 1)
    if field is None:
        field = field_of(base[0])
    with field.context():
        base_f = tuple(_finite(f"base coefficient {k}", b, field) for k, b in enumerate(base))
        gamma_f = _finite("exponent gamma", gamma, field)
        if gamma_f == int(gamma_f) and gamma_f >= 0:
            full = poly_power_int(base_f, int(gamma_f)) if gamma_f else (field.one,)
            weights = (full + (field.zero,) * truncation)[:truncation]
            if field.name == "float64":
                _refuse_non_finite(weights, f"P(z)^{gamma_f}")
            return WeightSeries(gamma_f, base_f, weights, truncation)
        weights = _expand(base_f, gamma_f, truncation, field)
    return WeightSeries(gamma_f, base_f, tuple(weights), truncation)


def _expand(base, gamma, truncation: int, field: Field, head=None) -> list:
    """``truncation`` weights of P(z)**gamma, for gamma not an integer >= 0,
    as a list of field scalars from ``base`` and ``gamma`` in ``field``,
    under ``field.context()``. ``head``, a shorter expansion of the same
    series, gives the seed, and every field continues the recurrence after
    it: each term is computed from the ones before it alone, so it has the
    same bits at every length."""
    b0 = base[0]
    if gamma != int(gamma) and not b0 > 0:
        raise ValueError("fractional exponent requires a positive leading base coefficient")
    if b0 == 0:  # gamma is a negative integer here
        raise ZeroDivisionError("negative power of a polynomial with zero constant term")
    w = [field.power(b0, gamma)] if head is None else list(head)
    deg = len(base) - 1
    if field.name == "float64":
        # row m of the band divided by m, its terms k = deg .. 1 against
        # w_{m-deg} .. w_{m-1}, read as w[-k] while w holds m weights; row
        # m < deg has the last m of them. m - k is exact in floats
        terms = [(-k, float(k), k * gamma, base[k]) for k in range(deg, 0, -1)]
        for m in range(len(w), truncation):
            mf, acc = float(m), 0.0
            for back, kf, kg, bk in terms[-m:]:
                acc -= (mf - kf - kg) * bk / mf * w[back]
            w.append(acc / b0)
        _refuse_non_finite(w, f"P(z)^{gamma}")
        return w
    rise = [k * (gamma + 1) for k in range(deg + 1)]
    for m in range(len(w), truncation):
        acc = field.zero
        for k in range(1, min(m, deg) + 1):
            acc += (rise[k] - m) * base[k] * w[m - k]
        w.append(acc / (m * b0))
    return w


def _refuse_non_finite(weights, series: str) -> None:
    """OverflowError naming the first double-precision weight out of range, if any."""
    first = next((k for k, g in enumerate(weights) if not math.isfinite(g)), None)
    if first is not None:
        raise OverflowError(f"double-precision weight {first} of {series} is not finite; "
                            "expand in a decimal field, e.g. bigdecimal(50) or --mode big")


def poly_power_int(base, gamma: int) -> tuple[Scalar, ...]:
    """Exact coefficients of P(z)**gamma for integer gamma >= 1, convolved as
    integers over one denominator (one Fraction out each) if ints and Fractions."""
    _integer("gamma", gamma, 1)
    base = tuple(base)
    if not base:
        raise ValueError("base polynomial must have at least one coefficient")
    base, den = _over_common_denominator(base) or (base, None)
    out = list(base)
    for _ in range(gamma - 1):
        acc = [0 * base[0]] * (len(out) + len(base) - 1)
        for i, av in enumerate(out):
            for j, bv in enumerate(base):
                acc[i + j] += av * bv
        out = acc
    if den is not None:
        out = [Fraction(c, den**gamma) for c in out]
    return tuple(out)


@dataclass(frozen=True)
class ConvergenceDiagnostic:
    """Unit-disk convergence test for a generator's fractional expansion.

    The edge-ratio criterion is exact for the p = 2 family, whose base
    factors into (1-z)^d times a single linear term; for any other p the
    same numbers are reported with ``advisory`` set.
    """

    beta0_positive: bool
    edge_ratio: Scalar
    converges_on_unit_disk: bool
    advisory: bool


def convergence_diagnostic(cv: CoefficientVector) -> ConvergenceDiagnostic:
    """Edge ratio |beta_{N-1}/beta_0| and the induced convergence verdict."""
    beta = cv.beta
    field = cv.params.field
    with field.context():
        b0 = beta[0]
        if b0 == 0:
            raise ZeroDivisionError("zero leading coefficient; expansion undefined")
        ratio = abs(beta[-1] / b0)
        positive = b0 > 0
        converges = positive and ratio < field.one
    return ConvergenceDiagnostic(positive, ratio, converges, advisory=cv.params.p != 2)
