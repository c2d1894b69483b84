"""Scalar fields: parsing, formatting, comparison, powers, decimal functions."""

import decimal
import math
import random
from decimal import Decimal
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from diffgen import (
    FLOAT64,
    RATIONAL,
    ExactnessError,
    bigdecimal,
    field_from_name,
    grunwald_weights,
    miller_expand,
    parse_scalar,
)
from diffgen import decfun, explicit_form
from diffgen.scalars import field_of


def test_parse_fraction_exact():
    assert parse_scalar("3/2") == Fraction(3, 2)
    assert parse_scalar("-7/120") == Fraction(-7, 120)
    assert parse_scalar("  4/6 ") == Fraction(2, 3)


def test_parse_decimal_literal():
    assert parse_scalar("0.5", FLOAT64) == 0.5
    # rational parsing of decimal text is exact, not binary-rounded
    assert parse_scalar("0.1") == Fraction(1, 10)
    assert parse_scalar("-2") == Fraction(-2)
    big = bigdecimal(30)
    assert parse_scalar("0.1", big) == Decimal("0.1")


def test_parse_rejects_malformed_text():
    for text in ("", "abc", "1/2/3", "nan", "inf", "1..2", "3/x"):
        with pytest.raises(ValueError):
            parse_scalar(text)
    with pytest.raises(ZeroDivisionError):
        parse_scalar("1/0")


def test_parse_format_round_trip_rational():
    rng = random.Random(7)
    for _ in range(50):
        x = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
        assert parse_scalar(RATIONAL.format(x)) == x


def test_field_lookup():
    assert field_from_name("rational") is RATIONAL
    assert field_from_name("f64") is FLOAT64
    assert field_from_name("float64") is FLOAT64
    assert field_from_name("big", 25).digits == 25
    with pytest.raises(ValueError):
        field_from_name("quad")


def test_bigdecimal_minimum_precision():
    with pytest.raises(ValueError):
        bigdecimal(10)
    with pytest.raises(ValueError):
        bigdecimal(14)
    assert bigdecimal(15).digits == 15
    assert bigdecimal().digits == 50


def test_field_of_inference():
    assert field_of(Fraction(1, 2)) is RATIONAL
    assert field_of(3) is RATIONAL
    assert field_of(0.5) is FLOAT64
    assert field_of(Decimal("0.5")).name == "bigdecimal"
    # numpy scalars: a bool or an integer counts as an int, a float of any width as a float
    assert field_of(True) is RATIONAL and field_of(np.True_) is RATIONAL
    assert field_of(np.int64(2)) is RATIONAL and field_of(np.uint8(3)) is RATIONAL
    assert field_of(np.float64(0.5)) is FLOAT64 and field_of(np.float32(0.5)) is FLOAT64
    assert grunwald_weights(np.int64(2), 3) == grunwald_weights(2, 3)
    assert miller_expand((np.int64(1), -1), 2, 3) == miller_expand((1, -1), 2, 3)
    assert grunwald_weights(np.float64(0.5), 3) == grunwald_weights(0.5, 3)
    with pytest.raises(TypeError):
        field_of("0.5")


def test_rational_power_exact_roots():
    assert RATIONAL.power(Fraction(9, 4), Fraction(1, 2)) == Fraction(3, 2)
    assert RATIONAL.power(Fraction(27, 8), Fraction(2, 3)) == Fraction(9, 4)
    assert RATIONAL.power(Fraction(-8), Fraction(1, 3)) == Fraction(-2)
    assert RATIONAL.power(Fraction(5, 7), -2) == Fraction(49, 25)
    assert RATIONAL.power(Fraction(0), Fraction(1, 2)) == 0


def test_rational_power_signals_inexactness():
    with pytest.raises(ExactnessError):
        RATIONAL.power(Fraction(3), Fraction(1, 2))
    with pytest.raises(ExactnessError):
        RATIONAL.power(Fraction(-4), Fraction(1, 2))
    with pytest.raises(TypeError):
        RATIONAL.power(Fraction(2), 0.5)
    with pytest.raises(ZeroDivisionError):
        RATIONAL.power(Fraction(0), Fraction(-1))


def test_float_power():
    assert FLOAT64.power(0.75, 0.8) == 0.75**0.8
    assert FLOAT64.power(2.0, -3) == 0.125
    with pytest.raises(ValueError):
        FLOAT64.power(-0.75, 0.8)


def test_decimal_power_matches_float():
    big = bigdecimal(30)
    got = big.power(Decimal("0.75"), Decimal("0.8"))
    assert abs(float(got) - 0.75**0.8) < 1e-14
    assert big.power(Decimal(2), Decimal(10)) == 1024


def test_field_conversions_and_constants():
    assert RATIONAL.of("2/3") == Fraction(2, 3)
    assert FLOAT64.of(Fraction(1, 2)) == 0.5
    big = bigdecimal(20)
    assert big.of(Fraction(1, 4)) == Decimal("0.25")
    assert RATIONAL.zero == 0 and RATIONAL.one == 1
    assert big.one == Decimal(1)


@pytest.mark.parametrize("field", [RATIONAL, FLOAT64, bigdecimal(30)], ids=str)
def test_fields_read_strings_by_one_grammar(field):
    # each field reads text as a Fraction and rounds it once, so "3/2" is
    # accepted everywhere and no field turns "nan" or "inf" into a value
    assert field.of("3/2") == field.of(Fraction(3, 2)) == Fraction(3, 2)
    assert field.of(" -0.1 ") == field.of(Fraction(-1, 10))
    assert field.of("1/3") == field.of(Fraction(1, 3))
    for text in ("nan", "inf", "-Infinity", "1/2/3", ""):
        with pytest.raises(ValueError):
            field.of(text)
    with pytest.raises(ZeroDivisionError):
        field.of("1/0")
    params = explicit_form.derive_params("3/2", 2, 2, 1, field)
    assert params.alpha == Fraction(3, 2)
    with pytest.raises(ValueError, match="alpha must be a finite number"):
        explicit_form.derive_params("nan", 2, 2, 1, field)


@pytest.mark.parametrize("field", [RATIONAL, FLOAT64, bigdecimal(30)], ids=lambda f: f.name)
@pytest.mark.parametrize("value", [None, 1j, object(), np.complex128(1 + 2j), b"1"],
                         ids=["none", "complex", "object", "numpy-complex", "bytes"])
def test_a_value_no_field_converts_is_refused_by_type(field, value):
    # every field raises TypeError, and the kernel's inputs raise ValueError naming the argument
    with pytest.raises(TypeError):
        field.of(value)
    with pytest.raises(ValueError, match="^derivative order alpha must be a finite number"):
        explicit_form.derive_params(value, 2, 2, 1, field)
    with pytest.raises(ValueError, match="^alpha must be a finite number"):
        grunwald_weights(value, 3, field)
    with pytest.raises(ValueError, match="^base coefficient 0 must be a finite number"):
        miller_expand([value], Fraction(1, 2), 3, field)


def _quotient_by_division(field, num, den):
    """The decimal quotient as one integer division of num 10^shift by den,
    an exact one as Decimal divides Decimal(num) by Decimal(den)."""
    if den < 0:
        num, den = -num, -den
    shift = field.digits + 2 - (num.bit_length() - den.bit_length() - 1) * 30103 // 100000
    quot, rem = divmod(abs(num) * 10 ** max(shift, 0), den * 10 ** max(-shift, 0))
    if not rem:
        return field._context.divide(Decimal(num), Decimal(den))
    return field._context.create_decimal(f"{'-' if num < 0 else ''}{quot}1E{-shift - 1}")


@pytest.mark.parametrize("digits", [15, 16, 30, 50])
def test_decimal_literals_read_as_by_one_integer_division(digits):
    # a literal's denominator is 2^a 5^b: its value has the repr of the
    # integer division's, exponents included
    field, rng = bigdecimal(digits), random.Random(digits)
    literals = ["0", "-0", "2.0", "1e5", "1e40", "-1e40", "0.5", "1.000", "123.4500", "1e-5",
                "-2.5e-7", "10/10", "100/8", "-7/1250", "99999999999999999999999999999.5",
                "9.99999999999999999999999999999999999e10", "0.125e-400", "-77e-3000",
                "1e300", "-2.5e2000", "7.25e4321", "999999999999999999999999999999999e500"]
    for _ in range(400):
        mantissa = rng.randrange(10 ** rng.randrange(1, 70))
        literals.append(f"{rng.choice('+-')}{mantissa}e{rng.randrange(-300, 300)}")
        fraction = rng.randrange(10**6)
        literals.append(f"{rng.randrange(1000)}.{fraction:06d}0e{rng.randrange(-99, 99)}")
    for text in literals:
        value = Fraction(text)
        want = repr(_quotient_by_division(field, value.numerator, value.denominator))
        assert repr(parse_scalar(text, field)) == repr(field.of(text)) == want, text
    # and Fractions over 2^a 5^b with numerators of every size and sign
    for _ in range(400):
        den = 2 ** rng.randrange(60) * 5 ** rng.randrange(60) * rng.choice([1, -1])
        num = rng.randrange(-10 ** rng.randrange(1, 80), 10 ** rng.randrange(1, 80))
        value = Fraction(num * 10 ** rng.randrange(5), den)
        want = _quotient_by_division(field, value.numerator, value.denominator)
        assert repr(field.of(value)) == repr(want), value
    # and ints of every size, powers of ten and their neighbours among them
    ints = [0, 1, -1, 10**digits - 1, 10**digits, 10**digits + 1, -(10 ** (digits + 1)) + 5]
    ints += [sign * rng.randrange(10**k) * 10 ** rng.randrange(3) for k in range(1, 3000, 37)
             for sign in (1, -1)]
    ints += [10**k + delta for k in range(0, 3000, 111) for delta in (-1, 0, 1)]
    for n in ints:
        want = _quotient_by_division(field, n, 1)
        assert repr(field.of(n)) == repr(field.of(Fraction(n))) == repr(want), n


def test_decimal_literal_of_a_large_exponent_is_read_exactly():
    # 1e-300000 took 2 s by the integer division, and 1e-1000000 26 s; past
    # the context's Emin = -999999 the value is subnormal, rounded once
    field = bigdecimal(30)
    for text, want in (("1e-300000", "1E-300000"), ("-3.25e-1000000", "-3.25E-1000000"),
                       ("1e-1000030", "0E-1000028")):
        got = repr(parse_scalar(text, field))
        assert got == repr(field._context.plus(Decimal(text))) == f"Decimal('{want}')"
    # 1e300000 took 2 s, its integer converted to Decimal; an integer's exponent
    # is 0 ideally, so its rounded value keeps all 30 digits
    for text, want in (("1e300000", "1.00000000000000000000000000000E+300000"),
                       ("-2.5e200000", "-2.50000000000000000000000000000E+200000"),
                       ("1e999990", "1.00000000000000000000000000000E+999990")):
        got = parse_scalar(text, field)
        assert repr(got) == f"Decimal('{want}')" and got == Decimal(text)
    assert repr(field.of(10**300000)) == repr(parse_scalar("1e300000", field))
    # past Emax = 999999 the context's Overflow trap refuses the value
    with pytest.raises(decimal.Overflow):
        parse_scalar("1e1000000", field)


def test_field_constants_are_built_once():
    for field in (RATIONAL, FLOAT64, bigdecimal(30)):
        assert field.zero is field.zero and field.one is field.one
        assert (field.zero, field.one) == (0, 1)
        assert type(field.zero) is type(field.of(0))
    # they take no part in construction, equality, hashing or repr
    assert bigdecimal(30) == bigdecimal(30) and hash(bigdecimal(30)) == hash(bigdecimal(30))
    assert repr(bigdecimal(30)) == "Field(name='bigdecimal', digits=30)"
    with pytest.raises(TypeError):
        type(FLOAT64)("float64", None, 0.0)


@pytest.mark.parametrize("field, dtype", [(RATIONAL, object), (FLOAT64, np.float64),
                                          (bigdecimal(30), object)], ids=str)
def test_field_vector_holds_the_fields_scalars(field, dtype):
    inputs = [1, Fraction(1, 3), "0.5"]
    values = field.vector(inputs)
    assert values.dtype == dtype and values.shape == (3,)
    assert values.tolist() == [field.of(v) for v in inputs]
    assert {type(v) for v in values.tolist()} == {type(field.one)}
    assert field.vector(np.arange(3)).tolist() == [field.of(i) for i in range(3)]
    copy = field.vector(values)  # a new array: writing to it leaves the input alone
    copy[0] = field.zero
    assert values[0] == 1
    with field.context():  # field_of takes a decimal's digits from the context
        assert field_of(field.one) == field and type(field_of(field.one)) is type(field)


_LONG = "3.14159265358979323846264338327950288419716939937510582097494459"


@pytest.mark.parametrize("inputs", [
    [Decimal("-0"), Decimal("0E-30"), Decimal("-0E+5"), Decimal("1.5"), Decimal("-2.5E-40"),
     Decimal(_LONG), Decimal("-" + _LONG), Decimal("9.99999999999999999999999999999999E+12")],
    [0, -7, 10**40 + 1, -(10**25)],
    np.arange(-3, 4),
    np.array([2**62, -(2**40)], dtype=np.int64),
    [0.1, -0.0, 1e300, 2.5],
    np.array([0.1, -0.0, 1e-300]),
    np.array([0, 7, 255], dtype=np.uint8),
    np.array([True, False]),
    [Fraction(1, 3), Fraction(-22, 7), Fraction(0)],
    ["0.5", "-1E-3", "-0", _LONG],
    [Decimal(_LONG), 3, Fraction(1, 3), 0.1, "2.75", -4, Decimal("-0")],
    [Decimal("1.25"), Fraction(1, 4)],
    [],
], ids=["decimals", "ints", "numpy-arange", "numpy-int64", "floats", "numpy-floats",
        "numpy-uint8", "numpy-bool", "fractions", "strings", "mixed", "decimal-then-fraction",
        "empty"])
@pytest.mark.parametrize("digits", [15, 30])
def test_decimal_vector_equals_of_by_repr(monkeypatch, inputs, digits):
    # each value goes through ``of`` once, a Decimal straight to the context's
    # ``plus``: the same values, exponents and signs of zero as ``of`` of each
    field, calls = bigdecimal(digits), []
    of = type(field).of
    monkeypatch.setattr(type(field), "of", lambda self, v: calls.append(v) or of(self, v))
    values = field.vector(inputs)
    monkeypatch.undo()
    assert repr(calls) == repr(list(np.asarray(inputs, dtype=object)))
    assert values.dtype == object and values.shape == (len(inputs),)
    assert repr(values.tolist()) == repr([field.of(v) for v in np.asarray(inputs, dtype=object)])


@pytest.mark.parametrize("field", [RATIONAL, FLOAT64, bigdecimal(30)], ids=lambda f: f.name)
@pytest.mark.parametrize("values", [
    [np.int32(-7)], [np.int64(2**62 + 1)], [np.float32(0.1)], [np.float64(-2.5e-300)],
    [np.longdouble("0.1")], [np.float16(0.1), np.float16(-6.1e-5)],
    [Decimal(1), np.int64(5), np.float32(0.5), Fraction(1, 3)],
], ids=["int32", "int64", "float32", "float64", "longdouble", "float16", "mixed"])
def test_fields_take_numpy_scalars_at_their_exact_value(field, values):
    # a numpy int converts as the Python int it equals, and a numpy float of
    # any width as its exact ratio of integers
    python = [Fraction(*v.as_integer_ratio()) if isinstance(v, np.floating)
              else v.item() if isinstance(v, np.generic) else v for v in values]
    converted = [field.of(v) for v in values]
    assert repr(converted) == repr([field.of(v) for v in python])
    assert repr(field.vector(values).tolist()) == repr(field.vector(python).tolist())
    if field is RATIONAL:  # a numpy int64 numerator would wrap on overflow
        assert all(type(v.numerator) is int for v in converted)


def _vector_by_lists(field, values):
    """``Field.vector`` of the rational and decimal fields as a list of each
    element of an object array through ``of`` (a Decimal rounded by ``plus``),
    put into ``np.array``: their earlier form, the reference for one call."""
    return np.array([field.of(v) for v in np.asarray(values, dtype=object)], dtype=object)


def _outcome(build):
    try:
        values = build()
    except Exception as exc:  # the error's type is part of the behaviour
        return type(exc)
    return values.dtype, values.shape, repr(values.tolist()), [type(v) for v in values.tolist()]


@pytest.mark.parametrize("field", [RATIONAL, bigdecimal(30)], ids=lambda f: f.name)
@pytest.mark.parametrize("values", [
    [0, -7, 10**40 + 1], [Fraction(1, 3), Fraction(-22, 7)], [0.1, -0.0, 1e300],
    ["1/3", "0.25", "-0", "1E-5"], [np.int64(5), np.float32(0.1), np.uint8(7), np.bool_(True)],
    np.arange(-3, 4), np.array([0.1, -0.0, 2.5]), np.array([0.5, 0.1], dtype=np.float32),
    np.array([0.1], dtype=np.longdouble), np.array([Decimal(1), Fraction(1, 2)], dtype=object),
    [Decimal("3.14159265358979323846264338327950288419716939937510582097494459"),
     Decimal("-0E-40")],
    [math.inf, -math.inf], [math.nan], [Decimal("Infinity"), Decimal("-Infinity")],
    [Decimal("NaN")], [], np.array([]), (Fraction(1, 2), 3), range(4),
    np.ones((2, 2)), [[1, 2], [3, 4]], [[1], 2], 5, "12", b"12", {1, 2}, {1: 2},
], ids=["ints", "fractions", "floats", "strings", "numpy-scalars", "numpy-arange", "numpy-floats",
        "numpy-float32", "numpy-longdouble", "numpy-objects", "wider-decimals", "infinities",
        "nan", "decimal-infinities", "decimal-nan", "empty", "empty-array", "tuple", "range",
        "2-D-array", "2-D-list", "ragged", "scalar", "string", "bytes", "set", "dict"])
def test_vector_in_one_call_equals_the_list_form(field, values):
    # the same dtype, shape, reprs and element types, or the same type of
    # error: a 2-D input, a scalar, a string, a set or a dict, or a value the
    # field cannot hold
    want = _outcome(lambda: _vector_by_lists(field, values))
    assert _outcome(lambda: field.vector(values)) == want


@pytest.mark.parametrize("field", [RATIONAL, FLOAT64, bigdecimal(30)], ids=lambda f: f.name)
def test_vector_refuses_a_2d_input(field):
    for values in (np.ones((2, 2)), [[1, 2], [3, 4]], np.array([[Decimal(1)]], dtype=object),
                   "12", 5):
        with pytest.raises(TypeError):
            field.vector(values)


def test_float64_quotient_of_zero_is_a_positive_zero():
    for den in (-3, 3, -(10**400)):
        zero = FLOAT64._quotient(0, den)
        assert zero == 0.0 and math.copysign(1.0, zero) == 1.0
    assert math.copysign(1.0, FLOAT64._quotient(-1, 10**400)) == -1.0


def test_field_aliases_are_equal_and_hit_the_denominator_cache():
    cache = explicit_form.denominators
    for names, digits in ((("rational",), 50), (("f64", "float64"), 50),
                          (("big", "bigdecimal"), 30)):
        fields = [field_from_name(name, digits) for name in names]
        with fields[0].context():  # field_of takes a decimal's digits from the context
            fields.append(field_of(fields[0].one))
        assert len(set(fields)) == 1 and len({hash(f) for f in fields}) == 1
        assert len({type(f) for f in fields}) == 1
        explicit_form.denominators(2, 3, fields[0])
        hits = cache.cache_info().hits
        for field in fields:
            explicit_form.denominators(2, 3, field)
        assert cache.cache_info().hits == hits + len(fields)


def test_rational_sin_and_gamma_refuse():
    with pytest.raises(ExactnessError):
        RATIONAL.sin(Fraction(1))
    with pytest.raises(ExactnessError):
        RATIONAL.gamma(Fraction(1, 2))
    assert RATIONAL.gamma(Fraction(5)) == 24


# --- decimal elementary functions -----------------------------------------


def test_decimal_pi_value():
    big = bigdecimal(50)
    with big.context():
        value = decfun.pi()
    mpmath.mp.dps = 60
    want = Decimal(mpmath.nstr(mpmath.pi, 55))
    assert abs(value - want) < Decimal("1e-48")


def test_decimal_sin_against_math_and_mpmath():
    big = bigdecimal(50)
    for x in ("0.5", "1", "-2.25", "3.125", "10.5"):
        got = big.sin(Decimal(x))
        assert abs(float(got) - math.sin(float(x))) < 1e-15
        mpmath.mp.dps = 60
        want = Decimal(mpmath.nstr(mpmath.sin(mpmath.mpf(x)), 55))
        assert abs(got - want) < Decimal("1e-48")


def test_decimal_cos_special_values():
    big = bigdecimal(40)
    with big.context():
        assert abs(decfun.cos(Decimal(0)) - 1) == 0
        # cos(pi) = -1 to working precision
        assert abs(decfun.cos(decfun.pi()) + 1) < Decimal("1e-38")


def test_decimal_gamma_against_math():
    big = bigdecimal(30)
    for x in ("1.5", "2.6", "5.6", "0.5", "9.25"):
        got = big.gamma(Decimal(x))
        assert abs(float(got) - math.gamma(float(x))) <= 1e-13 * math.gamma(float(x))


@pytest.mark.parametrize("digits", (15, 30, 50, 100, 200))
def test_decimal_gamma_within_one_ulp_of_mpmath(digits):
    # Spouge's alternating terms outgrow their sum the most at large arguments
    big = bigdecimal(digits)
    with mpmath.workdps(digits + 20):
        for x in ("0.01", "0.5", "1.75", "4.015625", "5.34", "5.6", "30.5", "99.99", "149.9"):
            got = big.gamma(Decimal(x))
            want = Decimal(mpmath.nstr(mpmath.gamma(mpmath.mpf(x)), digits + 15))
            assert abs(got - want) <= Decimal(1).scaleb(got.adjusted() - digits + 1), x


def test_decimal_gamma_integers_and_domain():
    big = bigdecimal(25)
    assert big.gamma(Decimal(5)) == 24
    assert big.gamma(Decimal(1)) == 1
    with pytest.raises(ValueError):
        big.gamma(Decimal(0))
    with pytest.raises(ValueError):
        big.gamma(Decimal("-1.5"))
