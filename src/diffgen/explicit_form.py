"""Closed-form coefficients for derivative approximations of any order.

The base polynomial P(z) = beta_0 + beta_1 z + ... + beta_{N-1} z^{N-1} with
N = p + d is fixed by the moment conditions

    sum_j (lam - j)^k beta_j = d! * delta_{k,d},   k = 0 .. N-1,

where lam = r*d/alpha encodes the evaluation shift. Raising P(z) to alpha/d
then generates weights approximating the derivative of order alpha with
accuracy order p. Each beta_j splits into a numerator N_j (an elementary
symmetric polynomial in the shifted nodes) over a denominator D_j that does
not depend on lam, which is what the functions below compute without ever
solving a linear system.

All of it runs exactly on Python ints; each result is rounded once into the
field, so float and decimal outputs are correctly rounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, Mapping

from .scalars import RATIONAL, Field, Scalar

if TYPE_CHECKING:  # pragma: no cover
    from .oracle import OpCount

__all__ = [
    "ApproxParams",
    "CoefficientVector",
    "ErrorCoefficients",
    "derive_params",
    "denominators",
    "numerators",
    "beta_coefficients",
    "error_coefficients",
]


@dataclass(frozen=True)
class ApproxParams:
    """Validated parameter bundle: derivative order alpha, base order d,
    accuracy order p, shift r, with lam = r*d/alpha and n_coeffs = p + d."""

    alpha: Scalar
    d: int
    p: int
    r: Scalar
    lam: Scalar
    n_coeffs: int
    field: Field

    @property
    def gamma(self) -> Scalar:
        """Exponent alpha/d applied to the base polynomial."""
        with self.field.context():
            return self.alpha / self.d


def _positive_int(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


def _finite(name: str, value, field: Field) -> Scalar:
    """``value`` in ``field``, refused unless finite: the kernel takes its exact value."""
    try:
        converted = field.of(value)
        converted.as_integer_ratio()  # raises for infinities and NaNs
    except (ArithmeticError, ValueError):
        raise ValueError(f"{name} must be a finite number in the {field.name} field") from None
    return converted


def derive_params(alpha, d: int, p: int, r, field: Field = RATIONAL) -> ApproxParams:
    """Validate inputs and precompute lam and the coefficient count.

    alpha must be positive; d and p are positive integers (not bools); r is
    any shift (integers give on-grid stencils, halves give staggered ones).
    Bad or non-finite input raises ValueError naming the parameter.
    """
    _positive_int("base derivative order d", d)
    _positive_int("accuracy order p", p)
    alpha = _finite("derivative order alpha", alpha, field)
    r = _finite("shift r", r, field)
    with field.context():
        if not alpha > 0:
            raise ValueError("derivative order alpha must be positive")
        lam = _finite("lam = r*d/alpha", r * d / alpha, field)
    return ApproxParams(alpha, d, p, r, lam, p + d, field)


@lru_cache(maxsize=None)
def _denominators(d: int, p: int, field: Field) -> tuple[Scalar, ...]:
    n = p + d
    first = Fraction(1)
    for m in range(d + 1, n):
        first *= -m
    out = [first]
    for j in range(1, n):
        out.append(out[-1] * Fraction(-j, n - j))
    return tuple(map(field.of, out))


def denominators(d: int, p: int, field: Field = RATIONAL) -> tuple[Scalar, ...]:
    """Shift-independent denominators D_j, j = 0..p+d-1.

    D_0 = prod_{m=d+1}^{p+d-1} (-m) and D_j = D_{j-1} * (-j) / (p+d-j); the
    exact values are rounded into ``field`` and cached per (d, p, field).
    """
    _positive_int("d", d)
    _positive_int("p", p)
    return _denominators(d, p, field)


def _exact_numerators(params: ApproxParams, tally: "OpCount | None") -> list[Fraction]:
    # With lam = a/q the nodes lam - m are (a - m*q)/q. Coefficient d of the
    # node product is homogeneous of degree p-1 in the nodes, so the recurrence
    # runs on the integer nodes a - m*q and each result is divided by q^(p-1).
    lam = Fraction(params.lam)
    a, q = lam.numerator, lam.denominator
    n = params.n_coeffs
    d = params.d
    adds = mults = 0
    xs = [a - m * q for m in range(n)]
    coeffs = [0] * (n + 1)
    coeffs[0] = 1
    for m in range(1, n):
        xm = xs[m]
        for k in range(m, 0, -1):
            coeffs[k] = coeffs[k - 1] + xm * coeffs[k]
        coeffs[0] = xm * coeffs[0]
        adds += m
        mults += m + 1
    nums = [coeffs[d]]
    prev = coeffs
    for j in range(1, n):
        x_in, x_out = xs[j - 1], xs[j]
        cur = [0] * (n + 1)
        for k in range(n - 1, -1, -1):
            cur[k] = prev[k] + x_in * prev[k + 1] - x_out * cur[k + 1]
        adds += 2 * n
        mults += 2 * n
        nums.append(cur[d])
        prev = cur
    if tally is not None:
        tally.additions += adds
        tally.multiplications += mults
    scale = q ** (params.p - 1)
    return [Fraction(c, scale) for c in nums]


def numerators(params: ApproxParams, tally: "OpCount | None" = None) -> tuple[Scalar, ...]:
    """Numerators N_j: degree-(p-1) elementary symmetric polynomials on the
    node sets {lam - k : k != j}.

    Builds the coefficient list of prod_{m=1}^{N-1} (x + lam - m) once, then
    slides the excluded node from j-1 to j with a two-term recurrence, so the
    whole family costs O(N^2) operations instead of N * C(N-1, p-1).
    ``tally`` (if given) accumulates the executed adds and multiplies.
    """
    return tuple(map(params.field.of, _exact_numerators(params, tally)))


@dataclass(frozen=True)
class CoefficientVector:
    """Base-polynomial coefficients beta_j = N_j / D_j with their parts, in
    ``params.field``; ``exact_beta`` holds the exact betas they round."""

    params: ApproxParams
    beta: tuple[Scalar, ...]
    numerators: tuple[Scalar, ...]
    denominators: tuple[Scalar, ...]
    exact_beta: tuple[Fraction, ...]


def beta_coefficients(params: ApproxParams, tally: "OpCount | None" = None) -> CoefficientVector:
    """Coefficients of the base polynomial for ``params``."""
    d, p, of = params.d, params.p, params.field.of
    nums = _exact_numerators(params, tally)
    exact_beta = tuple(nv / dv for nv, dv in zip(nums, _denominators(d, p, RATIONAL)))
    return CoefficientVector(params, tuple(map(of, exact_beta)), tuple(map(of, nums)),
                             _denominators(d, p, params.field), exact_beta)


@dataclass(frozen=True)
class ErrorCoefficients:
    """Leading error coefficients a_m, m = p .. p+count-1.

    The approximation error is sum_m a_m h^m D^{alpha+m} u + O(h^{m+1} ...),
    so ``leading`` (= a_p) multiplies h^p times the (alpha+p)-th derivative.
    """

    params: ApproxParams
    a: Mapping[int, Scalar]

    @property
    def leading(self) -> Scalar:
        return self.a[self.params.p]

    @property
    def super_convergent(self) -> bool:
        """True when the h^p term vanishes (order exceeds p); exact in every field."""
        return self.leading == 0


def error_coefficients(cv: CoefficientVector, count: int = 1) -> ErrorCoefficients:
    """First ``count`` error coefficients of the formula behind ``cv``.

    a_m = (alpha/d) * (1/(m+d)!) * sum_j (lam-j)^{m+d} beta_j; only
    m < 2p is meaningful for a base of degree p+d-1, hence count <= p. The
    sum runs on the integer nodes a - j*q (lam = a/q) and the exact betas
    over a common denominator.
    """
    params = cv.params
    if not isinstance(count, int) or count < 1 or count > params.p:
        raise ValueError(f"count must be in 1..p = {params.p}, got {count!r}")
    alpha, lam = Fraction(params.alpha), Fraction(params.lam)
    a, q = lam.numerator, lam.denominator
    common = math.lcm(*(b.denominator for b in cv.exact_beta))
    scaled_beta = [b.numerator * (common // b.denominator) for b in cv.exact_beta]
    nodes = [a - j * q for j in range(params.n_coeffs)]
    out: dict[int, Scalar] = {}
    for m in range(params.p, params.p + count):
        k = m + params.d
        moment = sum(node**k * b for node, b in zip(nodes, scaled_beta))
        den = alpha.denominator * params.d * math.factorial(k) * q**k * common
        out[m] = params.field.of(Fraction(alpha.numerator * moment, den))
    return ErrorCoefficients(params, out)
