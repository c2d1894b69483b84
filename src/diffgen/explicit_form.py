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

All of it runs exactly on Python ints, from the node polynomial prod_m (x + X_m)
on the integer nodes X_m = q*(lam - m), lam = a/q: numerators are its quotients
by division from the constant term, error moments the remainders of powers
modulo it. Each result is rounded once into the field from an unreduced integer
pair, so float and decimal outputs are correctly rounded.
"""

from __future__ import annotations

import math
import os
import sys
import warnings
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, Mapping

from .scalars import RATIONAL, Field, Scalar, _integer

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


def _finite(name: str, value, field: Field) -> Scalar:
    """``value`` in ``field``, refused unless finite: the kernel takes its exact value."""
    try:
        converted = field.of(value)
        converted.as_integer_ratio()  # raises for infinities and NaNs
    except (ArithmeticError, TypeError, ValueError):
        raise ValueError(f"{name} must be a finite number in the {field.name} field") from None
    return converted


def _warn(message: str, category: type[Warning]) -> None:
    """Warn with ``category``, attributed to the first caller outside this package."""
    frame, level, package = sys._getframe(1), 2, os.path.dirname(__file__) + os.sep
    while frame.f_back is not None and frame.f_code.co_filename.startswith(package):
        frame, level = frame.f_back, level + 1
    warnings.warn(message, category, stacklevel=level)


def derive_params(alpha, d: int, p: int, r, field: Field = RATIONAL) -> ApproxParams:
    """Validate inputs and precompute lam and the coefficient count.

    alpha must be positive; d and p are positive integers (not bools); r is
    any shift (integers give on-grid stencils, halves give staggered ones).
    Bad or non-finite input raises ValueError naming the parameter.
    """
    _integer("base derivative order d", d, 1)
    _integer("accuracy order p", p, 1)
    alpha = _finite("derivative order alpha", alpha, field)
    r = _finite("shift r", r, field)
    with field.context():
        if not alpha > 0:
            raise ValueError("derivative order alpha must be positive")
        lam = _finite("lam = r*d/alpha", r * d / alpha, field)
    return ApproxParams(alpha, d, p, r, lam, p + d, field)


@lru_cache(maxsize=None, typed=True)  # typed: True or 2.0 never hits an int's entry
def denominators(d: int, p: int, field: Field = RATIONAL) -> tuple[Scalar, ...]:
    """Shift-independent denominators D_j = (-1)^(p-1-j) j! (p+d-1-j)! / d!,
    j = 0..p+d-1, rounded into ``field`` and cached per (d, p, field)."""
    _integer("d", d, 1)
    _integer("p", p, 1)
    n, fact = p + d, math.factorial
    return tuple(field.of(Fraction((-1) ** (p - 1 + j) * fact(j) * fact(n - 1 - j), fact(d)))
                 for j in range(n))


@lru_cache(maxsize=32)
def _node_polynomial(a: int, q: int, n: int) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """With lam = a/q the nodes lam - m are X_m/q on the integers X_m = a - m*q:
    the X_m (m < n), the coefficients (lowest first) of Pi(x) = prod_m (x + X_m),
    and q. The last few are kept, keyed on integers: one request, and requests of
    equal lam and n in any field, build Pi once."""
    nodes = [a - m * q for m in range(n)]
    poly = [nodes[0], 1]
    for x in nodes[1:]:
        poly = [x * poly[0]] + [lo + x * hi for lo, hi in zip(poly, poly[1:])] + [1]
    return tuple(nodes), tuple(poly), q


def _numerator_pairs(params: ApproxParams, tally: "OpCount | None") -> list[tuple[int, int]]:
    # N_j = c_j / q^(p-1) with c_j = [x^d] Pi(x)/(x + X_j), the degree-(p-1)
    # elementary symmetric polynomial of the other X_m. Pi = (x + X_j) Q gives
    # Q_0 = Pi_0 / X_j and Q_k = (Pi_k - Q_{k-1}) / X_j, exact divisions, so
    # c_j = Q_d takes d + 1 steps from the bottom; a zero node leaves Q_d = Pi_{d+1}
    nodes, poly, q = _node_polynomial(*params.lam.as_integer_ratio(), params.n_coeffs)
    d, n, scale = params.d, params.n_coeffs, q ** (params.p - 1)
    low = poly[1 : d + 1]
    nums = []
    for x in nodes:
        if x:
            c = poly[0] // x
            for coeff in low:
                c = (coeff - c) // x
        else:
            c = poly[d + 1]
        nums.append((c, scale))
    if tally is not None:  # building Pi, then the divisions by the nonzero nodes
        divided = sum(1 for x in nodes if x)
        tally.additions += n * (n - 1) // 2 + divided * d
        tally.multiplications += n * (n - 1) // 2 + n - 1 + divided * (d + 1)
    return nums


def numerators(params: ApproxParams, tally: "OpCount | None" = None) -> tuple[Scalar, ...]:
    """Numerators N_j: degree-(p-1) elementary symmetric polynomials on the
    node sets {lam - k : k != j}.

    Builds the node polynomial prod_{m=0}^{N-1} (x + lam - m) once, on integer
    nodes, then divides each node out of it by d+1 exact divisions from its
    constant term: O(N^2) operations instead of N * C(N-1, p-1). ``tally`` (if
    given) accumulates the adds and multiplies (divisions among them) of both
    steps, also when the node polynomial was kept from an earlier call.
    """
    return tuple(params.field._quotient(*nv) for nv in _numerator_pairs(params, tally))


@dataclass(frozen=True)
class CoefficientVector:
    """Base-polynomial coefficients beta_j = N_j / D_j of ``params`` in its field
    (the N_j are ``numerators(params)``, the D_j ``denominators(d, p, field)``);
    ``exact_beta``, computed when first read, holds the exact betas (``beta``
    itself in the rational field)."""

    params: ApproxParams
    beta: tuple[Scalar, ...]

    @cached_property
    def exact_beta(self) -> tuple[Fraction, ...]:
        if self.params.field == RATIONAL:
            return self.beta
        return beta_coefficients(replace(self.params, field=RATIONAL)).beta


def beta_coefficients(params: ApproxParams) -> CoefficientVector:
    """Coefficients of the base polynomial for ``params``."""
    quotient, nums = params.field._quotient, _numerator_pairs(params, None)
    exact_den = denominators(params.d, params.p, RATIONAL)
    beta = (quotient(c * dj.denominator, s * dj.numerator) for (c, s), dj in zip(nums, exact_den))
    return CoefficientVector(params, tuple(beta))


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
    moments need no betas: with s_k = [y^d] (y^k mod Pi(y)) on the integer
    node polynomial, sum_j (lam-j)^k beta_j = d! (-1)^(k+d) q^(d-k) s_k.
    """
    params = cv.params
    d, p, n = params.d, params.p, params.n_coeffs
    _integer("count", count, 1, p)
    alpha = Fraction(params.alpha)
    _, poly, q = _node_polynomial(*params.lam.as_integer_ratio(), n)
    # s_k = delta_{k,d} for k < N, then s_k = -sum_{i<N} Pi_i s_{k-N+i} (Pi is monic of
    # degree N): the delta and the s_j found so far, times Pi's small top coefficients
    s: list[int] = []
    out: dict[int, Scalar] = {}
    for m in range(p, p + count):
        k = m + d
        s_k = -sum(poly[j + n - k] * s_j for j, s_j in enumerate(s, n))
        s.append(s_k - poly[d + n - k] if k - n <= d else s_k)
        num = (-1) ** m * alpha.numerator * math.factorial(d - 1) * s[-1]
        out[m] = params.field._quotient(num, alpha.denominator * math.factorial(k) * q**m)
    return ErrorCoefficients(params, out)
