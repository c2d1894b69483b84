"""Interchangeable scalar arithmetic for coefficient generation and solving.

``Field`` is one interface with three small implementations:

* ``RATIONAL``           -- exact ``fractions.Fraction`` arithmetic;
* ``FLOAT64``            -- IEEE double precision (native floats);
* ``bigdecimal(digits)`` -- ``decimal.Decimal`` at ``digits`` significant digits.

Each writes its conversion, rounding, text and elementary functions once, so
no method tests which arithmetic it holds. ``vector(values)`` is the field's
array: a float64 ndarray in double precision, an object ndarray otherwise.

Coefficient generation defaults to the rational field so every downstream
identity can be checked with ``==``. In the float fields the coefficient
kernel still computes exactly and rounds each result once with
``Field._quotient``, so float and decimal coefficients are correctly rounded;
the solver layer computes in the field itself.
"""

from __future__ import annotations

import math
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field
from decimal import Context, Decimal, getcontext, localcontext
from fractions import Fraction
from typing import Union

from . import decfun


class _Numpy:
    """numpy, imported by the first attribute read of it rather than by diffgen's import.

    No coefficient, stencil or weight series needs an array, so importing
    diffgen runs no numpy until an array operation (any BVP solve or
    ``Field.vector``) reads an attribute of it. That saves the import only
    for work that builds no array; a solve pays it at its first array
    operation. The first read of each name runs the import statement, which
    holds numpy's module lock while numpy executes, so threads that touch it
    at once wait for one whole import, and a failed import raises its
    ImportError each time. The solvers take ``np`` from here; no other
    module of the package uses numpy.
    """

    def __getattr__(self, name: str):
        import numpy

        value = getattr(numpy, name)
        setattr(self, name, value)  # later reads of the name find it without this call
        return value


np = sys.modules.get("numpy") or _Numpy()  # an already imported numpy is used as it is

Scalar = Union[Fraction, float, Decimal]

__all__ = [
    "Scalar",
    "Field",
    "RATIONAL",
    "FLOAT64",
    "bigdecimal",
    "field_from_name",
    "parse_scalar",
    "ExactnessError",
]

MIN_DIGITS = 15
_NO_CONTEXT = nullcontext()  # stateless, so one serves every call, nested or not


class ExactnessError(ArithmeticError):
    """An operation has no exact representation in the rational field."""


_AT_LEAST = {0: "a non-negative integer", 1: "a positive integer"}


def _integer(name: str, value, low: int, high: int | None = None) -> None:
    """The check of every count argument: unless ``value`` is an int (not a
    bool, nor a numpy integer) in low..high, ValueError naming the parameter
    and echoing the value."""
    if isinstance(value, bool) or not isinstance(value, int) or value < low or (
            high is not None and value > high):
        kind = (f"an integer in {low}..{high}" if high is not None
                else _AT_LEAST.get(low, f"an integer >= {low}"))
        raise ValueError(f"{name} must be {kind}, got {value!r}")


def _integer_nth_root(n: int, k: int) -> tuple[int, bool]:
    """Floor k-th root of n >= 0 and whether it is exact."""
    if n < 0:
        raise ValueError("negative radicand")
    if n == 0:
        return 0, True
    x = 1 << ((n.bit_length() + k - 1) // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    return x, x**k == n


def _python_number(value: np.generic):
    """A numpy scalar as the Python number it equals: an int or a bool by
    ``item``, a finite float of any width as its exact Fraction (the ``item``
    of a long double is itself), an inf or a NaN as a float."""
    if not isinstance(value, np.floating):
        return value.item()
    return Fraction(*value.as_integer_ratio()) if np.isfinite(value) else float(value)


def _exact_fraction_power(base: Fraction, exponent: Fraction) -> Fraction:
    if exponent.denominator == 1:
        if base == 0 and exponent < 0:
            raise ZeroDivisionError("0 raised to a negative power")
        return base ** int(exponent)
    s, t = exponent.numerator, exponent.denominator
    if base == 0:
        if s < 0:
            raise ZeroDivisionError("0 raised to a negative power")
        return Fraction(0)
    negative = base < 0
    if negative and t % 2 == 0:
        raise ExactnessError(f"even root of negative rational {base}")
    rn, ok_n = _integer_nth_root(abs(base.numerator), t)
    rd, ok_d = _integer_nth_root(base.denominator, t)
    if not (ok_n and ok_d):
        raise ExactnessError(f"{base} has no exact rational {t}th root")
    root = Fraction(-rn if negative else rn, rd)
    return root**s


@dataclass(frozen=True, repr=False)
class Field:
    """One scalar realization, implemented by ``_Rational``, ``_Float64`` and
    ``_BigDecimal``.

    Use the module constants ``RATIONAL`` and ``FLOAT64``, or build a decimal
    field with ``bigdecimal(digits)``. Each implementation writes ``of``
    (convert an int, Fraction, float, Decimal, numpy integer or float scalar
    or literal string into the field; TypeError for anything else),
    ``_quotient(num, den)`` (num/den for integers, den != 0, correctly
    rounded with no need to reduce the pair first), ``finite(values)``
    (whether every one of a sequence of field values is finite), ``format``
    (num/den for rationals, the shortest round-trip otherwise), ``power``
    (exact or ExactnessError in the rational field; a fractional exponent
    needs a base >= 0 otherwise), ``sin`` and ``gamma`` (positive arguments
    in the float fields). All of them honour the field's precision: decimal
    work runs inside ``context()``. ``zero`` and ``one`` are the field's
    constants, built once. ``condition_limit`` is the largest condition
    estimate a solve accepts, 10^(digits - 2) so that two significant digits
    survive (1e14 in double precision, None in the exact field), also built
    once. Fields compare and hash by ``name`` and ``digits``.
    """

    name: str
    digits: int | None = None
    zero: Scalar = field(init=False, compare=False)
    one: Scalar = field(init=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "zero", self.of(0))
        object.__setattr__(self, "one", self.of(1))

    def __repr__(self):
        return f"Field(name={self.name!r}, digits={self.digits!r})"

    def context(self):
        """Context manager activating this field's decimal precision (no-op otherwise)."""
        return _NO_CONTEXT

    def vector(self, values) -> np.ndarray:
        """A new 1-D array of ``values`` (an ndarray, by ``tolist``, or an ordered
        iterable) in this field, each via ``of``: float64 in double precision, else objects."""
        if isinstance(values, (str, bytes, set, frozenset, dict)):  # one scalar, or no order
            raise TypeError(f"a vector takes a sequence of values, not {type(values).__name__}")
        values = values.tolist() if isinstance(values, np.ndarray) else list(values)
        return np.fromiter(map(self.of, values), dtype=object, count=len(values))


class _Rational(Field):
    """Exact ``fractions.Fraction`` arithmetic."""

    condition_limit = None

    def of(self, value) -> Fraction:
        if type(value) is Fraction:
            return value
        if isinstance(value, (int, float, str, Decimal, Fraction)):  # read with no numpy
            return Fraction(value)
        # Fraction refuses a numpy float32 and keeps a numpy int, which wraps on overflow
        return Fraction(_python_number(value) if isinstance(value, np.generic) else value)

    def _quotient(self, num: int, den: int) -> Fraction:
        return Fraction(num, den)

    def finite(self, values) -> bool:
        return True  # a Fraction has no infinity or NaN

    def format(self, x) -> str:
        return str(Fraction(x))

    def power(self, base, exponent) -> Fraction:
        if isinstance(exponent, float):
            raise TypeError("float exponent in rational field")
        return _exact_fraction_power(Fraction(base), Fraction(exponent))

    def sin(self, x):
        raise ExactnessError("sin has no exact rational value; use float64 or bigdecimal")

    def gamma(self, x) -> Fraction:
        x = Fraction(x)
        if x.denominator == 1 and x > 0:
            return Fraction(math.factorial(int(x) - 1))
        raise ExactnessError("gamma is irrational off the positive integers")


class _Float64(Field):
    """IEEE double precision on native floats and float64 ndarrays."""

    condition_limit = 1e14

    def of(self, value) -> float:
        if isinstance(value, str):  # read as the other fields read it, then rounded once
            value = Fraction(value)
        if isinstance(value, (float, int, Fraction, Decimal)):  # read with no numpy
            return float(value)
        if isinstance(value, np.generic):  # a numpy complex or bytes value raises below
            return self.of(_python_number(value))
        raise TypeError(f"cannot convert {type(value).__name__} to a float")

    def vector(self, values) -> np.ndarray:
        if isinstance(values, np.ndarray) and values.ndim == 1 and values.dtype.kind in "biuf":
            return np.array(values, dtype=float)  # real numbers, in one conversion
        return super().vector(values).astype(float)

    def finite(self, values) -> bool:
        if isinstance(values, np.ndarray):
            return bool(np.isfinite(values).all())
        return all(map(math.isfinite, values))  # a few scalars: no array to build

    def _quotient(self, num: int, den: int) -> float:
        # a positive denominator keeps 0/-3 a positive zero
        return -num / -den if den < 0 else num / den

    def format(self, x) -> str:
        return repr(float(x))

    def power(self, base, exponent) -> float:
        b, e = float(base), float(exponent)
        if b < 0 and not e.is_integer():
            raise ValueError("negative base with fractional exponent")
        if b == 0 and e < 0:
            raise ZeroDivisionError("0 raised to a negative power")
        return b**e

    def sin(self, x) -> float:
        return math.sin(float(x))

    def gamma(self, x) -> float:
        return math.gamma(float(x))


class _BigDecimal(Field):
    """``decimal.Decimal`` at ``digits`` significant digits."""

    def __post_init__(self):
        # built once: a Context costs more than rounding one value in it
        object.__setattr__(self, "_context", Context(prec=self.digits))
        object.__setattr__(self, "condition_limit", self._context.power(10, self.digits - 2))
        super().__post_init__()

    def context(self):
        return localcontext(self._context)

    def of(self, value) -> Decimal:
        if isinstance(value, Decimal):  # an inf or a NaN stays one, for the finite checks
            return self._context.plus(value)
        if isinstance(value, float):
            return self._context.plus(Decimal(value))
        if isinstance(value, str):  # read as the other fields read it, then rounded once
            value = Fraction(value)
        if isinstance(value, (int, Fraction)):
            return self._quotient(*value.as_integer_ratio())
        if isinstance(value, np.generic):
            return self.of(_python_number(value))
        raise TypeError(f"cannot convert {type(value).__name__} to a decimal")

    def finite(self, values) -> bool:
        return all(v.is_finite() for v in values)

    def _quotient(self, num: int, den: int) -> Decimal:
        # equals Decimal division, from one integer division: no Decimal of num or den
        if den < 0:
            num, den = -num, -den
        # |num| 10^shift // den has over `digits` digits: log10|num/den| > (bits - 1) log10 2
        shift = self.digits + 2 - (num.bit_length() - den.bit_length() - 1) * 30103 // 100000
        quot, rem = divmod(abs(num) * 10 ** max(shift, 0), den * 10 ** max(-shift, 0))
        if rem:  # a sticky 1 after the known digits stands for the remainder
            return self._context.create_decimal(f"{'-' if num < 0 else ''}{quot}1E{-shift - 1}")
        if not quot:
            return Decimal(0)  # 0/den, at Decimal division's ideal exponent 0
        # exact, quot 10^-shift: Decimal division drops its trailing 0s while the exponent is below 0
        text = f"{'-' if num < 0 else ''}{quot}"
        kept = len(text.rstrip("0"))
        if kept < len(text) - shift:  # past the exponent 0: stop there, or at -shift > 0
            kept = len(text) - max(shift, 0)
        return self._context.create_decimal(f"{text[:kept]}E{len(text) - kept - shift}")

    def format(self, x) -> str:
        return str(x)

    def power(self, base, exponent) -> Decimal:
        with self.context():
            b = self.of(base)
            e = self.of(exponent)
            if e == e.to_integral_value():
                if b == 0 and e < 0:
                    raise ZeroDivisionError("0 raised to a negative power")
                return +(b ** int(e))
            if b == 0:
                if e < 0:
                    raise ZeroDivisionError("0 raised to a negative power")
                return +Decimal(0)
            if b < 0:
                raise ValueError("negative base with fractional exponent")
            return +(b**e)

    def sin(self, x) -> Decimal:
        with self.context():
            return decfun.sin(self.of(x))

    def gamma(self, x) -> Decimal:
        with self.context():
            return decfun.gamma(self.of(x))


RATIONAL = _Rational("rational")
FLOAT64 = _Float64("float64")


def bigdecimal(digits: int = 50) -> Field:
    """Decimal field at ``digits`` significant digits (at least 15)."""
    _integer("precision digits", digits, MIN_DIGITS)
    return _BigDecimal("bigdecimal", digits)


_FIELDS = {"rational": RATIONAL, "f64": FLOAT64, "float64": FLOAT64,
           "big": bigdecimal, "bigdecimal": bigdecimal}


def field_from_name(name: str, digits: int = 50) -> Field:
    """The field a name stands for; ``big`` and ``bigdecimal`` at ``digits``."""
    try:
        field = _FIELDS[name]
    except KeyError:
        raise ValueError(f"unknown field {name!r}") from None
    return field if isinstance(field, Field) else field(digits)


def field_of(x) -> Field:
    """Infer the field a scalar belongs to (Decimal uses the active precision;
    a numpy bool or integer counts as an int, a numpy float as a float)."""
    if isinstance(x, (int, Fraction)):
        return RATIONAL
    if isinstance(x, float):
        return FLOAT64
    if isinstance(x, Decimal):
        return bigdecimal(max(MIN_DIGITS, getcontext().prec))
    if isinstance(x, np.generic):
        return FLOAT64 if isinstance(x, np.floating) else field_of(x.item())
    raise TypeError(f"not a scalar: {x!r}")


def parse_scalar(text: str, field: Field = RATIONAL) -> Scalar:
    """Parse an integer, num/den fraction, or decimal literal into ``field``.

    Rational parsing of decimal literals is exact; float fields round to
    nearest. Raises ValueError on malformed text and ZeroDivisionError on a
    zero denominator.
    """
    if not isinstance(text, str):
        raise ValueError(f"expected a string, got {type(text).__name__}")
    try:
        value = Fraction(text)
    except ValueError:
        raise ValueError(f"malformed scalar literal {text!r}") from None
    except ZeroDivisionError:
        raise ZeroDivisionError(f"zero denominator in scalar literal {text!r}") from None
    return field.of(value)


def _over_common_denominator(values) -> tuple[list[int], int] | None:
    """Ints and Fractions as (integers, their least common denominator); None if not all are."""
    if not all(isinstance(v, (int, Fraction)) for v in values):
        return None
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den
