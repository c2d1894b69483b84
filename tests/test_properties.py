"""Hypothesis properties of the exact coefficient kernel over random rational
(d <= 4, p <= 8, lam): agreement with the Cramer oracle and the moment sums,
correct rounding into the float fields, and the left/right mirror identity.
Also of the weight series: P(z)^gamma times P(z)^(-gamma) is 1, integer
powers agree with the convolution, and f64 weights are within a stated bound
of the exact ones. And of the BVP problems' grid data: decimal values within
one unit in the last place of mpmath's, f64 values within one ulp of Python's
per-point functions. And of the correctly rounded integer quotient every
coefficient is rounded through: equal to Decimal division, float(Fraction)
and Fraction, string for string. And of the unified scheme's collocation
solve: equal to exact elimination of the dense system for random rational
domains, boundary values and polynomial right-hand sides. And of the integer
paths of exact sums: integer powers of Fraction bases and rational stencils
applied to exact samples equal Fraction arithmetic, float samples keep their
float result bit for bit, and a coefficient vector's parts read on demand equal
the public functions in every field, and requests of equal lam share one node
polynomial. And of the exact series product of the rational and decimal
series solves: every term is the exact sum rounded once, for signed values
across many decades and with more digits than the field."""

import math
from decimal import Context, Decimal
from fractions import Fraction as F

import mpmath
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diffgen import (
    FLOAT64,
    RATIONAL,
    BvpProblem,
    assemble_unified,
    beta_coefficients,
    apply_stencil,
    bigdecimal,
    compact_stencil,
    consistency_moments,
    derive_params,
    error_coefficients,
    miller_expand,
    noncompact_stencil,
    poly_power_int,
    power_law_fractional_bvp,
    sine_bvp,
    solve_bvp,
    solve_dense,
    vandermonde_solve,
)
from diffgen import explicit_form
from diffgen.solvers import _convolve, _grid

# derandomized and without an example database, so every run checks the
# same examples
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)

orders = st.integers(1, 4)
accuracies = st.integers(1, 8)
shifts = st.fractions(min_value=-12, max_value=24, max_denominator=12)
alphas = st.fractions(min_value=F(1, 8), max_value=8, max_denominator=9).filter(lambda a: a > 0)


@PROPERTY
@given(orders, accuracies, shifts, alphas)
def test_kernel_matches_cramer(d, p, r, alpha):
    params = derive_params(alpha, d, p, r)
    assert beta_coefficients(params).beta == vandermonde_solve(params)


@PROPERTY
@given(orders, accuracies, st.floats(-12, 24), st.floats(0.125, 8))
def test_float64_is_exact_rounded_once(d, p, r, alpha):
    params = derive_params(alpha, d, p, r, FLOAT64)
    cv = beta_coefficients(params)
    exact = beta_coefficients(derive_params(F(alpha), d, p, F(params.lam) * F(alpha) / d))
    assert exact.beta == cv.exact_beta
    assert cv.beta == tuple(float(b) for b in exact.beta)
    want = error_coefficients(exact, p).a
    assert error_coefficients(cv, p).a == {m: float(v) for m, v in want.items()}


@PROPERTY
@given(orders, accuracies, shifts)
def test_bigdecimal_is_exact_rounded_once(d, p, r):
    big = bigdecimal(50)
    with big.context():
        r_dec = Decimal(r.numerator) / Decimal(r.denominator)
    params = derive_params(d, d, p, r_dec, big)
    cv = beta_coefficients(params)
    exact = beta_coefficients(derive_params(d, d, p, F(params.lam)))
    assert cv.beta == tuple(big.of(b) for b in exact.beta)


@PROPERTY
@given(orders, accuracies, shifts, alphas)
def test_error_coefficients_are_scaled_moments(d, p, r, alpha):
    cv = beta_coefficients(derive_params(alpha, d, p, r))
    moments = consistency_moments(cv, 2 * p - 1 + d)
    errs = error_coefficients(cv, p).a
    assert errs == {m: alpha / d * moments[m + d] for m in range(p, 2 * p)}


@PROPERTY
@given(orders, accuracies, shifts)
def test_mirror_identity(d, p, lam):
    n = p + d
    fwd = beta_coefficients(derive_params(d, d, p, lam)).beta
    rev = beta_coefficients(derive_params(d, d, p, (n - 1) - lam)).beta
    assert tuple(reversed(rev)) == tuple((-1) ** d * b for b in fwd)


# base polynomials b0 + tail(z) with b0 a perfect square and fourth power, so
# that b0^(1/2) and b0^(-1/2) are rational
leads = st.sampled_from([1, 4])
tails = st.lists(st.fractions(min_value=-8, max_value=8, max_denominator=8), max_size=4)
lengths = st.integers(1, 24)


def _truncated_product(a, b):
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(len(a))]


def _unit(k):
    return [1] + [0] * (k - 1)


@PROPERTY
@given(leads, tails, lengths)
def test_reciprocal_series_is_exact(b0, tail, k):
    base = (F(b0), *tail)
    weights = miller_expand(base, F(1, 2), k).weights
    assert _truncated_product(weights, miller_expand(base, F(-1, 2), k).weights) == _unit(k)


@PROPERTY
@given(leads, tails, lengths, st.sampled_from([0.25, 0.5, 0.7, 1.5, 2.0]))
def test_float64_reciprocal_series_within_k_eps(b0, tail, k, gamma):
    # each term of the product, formed exactly from the rounded weights, is
    # within 2 K unit roundoffs of the magnitudes it sums
    base = (float(b0), *map(float, tail))
    weights = miller_expand(base, gamma, k, FLOAT64).weights
    inverse = miller_expand(base, -gamma, k, FLOAT64).weights
    eps = F(2) ** -53
    for m in range(k):
        terms = [F(weights[i]) * F(inverse[m - i]) for i in range(m + 1)]
        assert abs(sum(terms) - _unit(k)[m]) <= 2 * k * eps * sum(map(abs, terms))


@PROPERTY
@given(leads, tails, lengths, st.integers(1, 4))
def test_integer_powers_are_convolutions(b0, tail, k, gamma):
    # +gamma takes the convolution, -gamma the Miller recurrence
    base = (F(b0), *tail)
    power = (poly_power_int(base, gamma) + (0,) * k)[:k]
    assert miller_expand(base, gamma, k).weights == power
    assert _truncated_product(power, miller_expand(base, -gamma, k).weights) == _unit(k)


# dyadic tails are exact in f64, so the rational expansion of the same base is
# the exact value of the float one
dyadic_tails = st.lists(st.integers(-64, 64).map(lambda n: F(n, 8)), max_size=4)


def _majorant(base, gamma, w0, k):
    """The Miller recurrence on the magnitudes of its terms, from |w0|."""
    deg, out = len(base) - 1, [abs(w0)]
    for m in range(1, k):
        terms = (abs((j * (gamma + 1) - m) * base[j]) * out[m - j]
                 for j in range(1, min(m, deg) + 1))
        out.append(sum(terms, F(0)) / (m * abs(base[0])))
    return out


@PROPERTY
@given(leads, dyadic_tails, lengths, st.sampled_from([F(1, 2), F(-1, 2)]))
def test_float64_miller_weights_within_stated_bound(b0, tail, k, gamma):
    # |w_m - exact_m| <= (deg + 3)(m + 1) u M_m with M the majorant: a term of
    # weight m rounds once in its band entry (the division of row m by m), once
    # in its product and at most deg - 1 times in the sum, the quotient by the
    # diagonal (exactly beta_0) once, and weight m inherits the error of the
    # weights before it
    base = (F(b0), *tail)
    exact = miller_expand(base, gamma, k).weights
    weights = miller_expand(tuple(map(float, base)), float(gamma), k, FLOAT64).weights
    step = (len(base) + 2) * F(1, 2**53)  # (deg + 3) u
    for m, (w, want, bound) in enumerate(zip(weights, exact, _majorant(base, gamma, exact[0], k))):
        assert abs(F(w) - want) <= step * (m + 1) * bound


# grid data of the BVP problems. N = 3, 7 and 11 have steps that are not
# finite decimals; at N = 11 some points i h of the power-law grid on [0, 1]
# need one digit more than the field has, so the grid holds them rounded
GRID_DATA = settings(max_examples=25, deadline=None, derandomize=True, database=None)
grid_digits = st.sampled_from([30, 50, 80])
grid_sizes = st.sampled_from([2, 3, 7, 11, 100, 1024])
power_law_alphas = st.integers(65, 127).map(lambda k: F(k, 64))


def _within_last_place(values, reference, digits, floor=0):
    """|v - u| <= one unit in the last of ``digits`` places of u, or
    ``floor`` where that is larger."""
    for v, u in zip(values, reference):
        place = mpmath.mpf(10) ** (mpmath.floor(mpmath.log10(abs(u))) + 1 - digits) if u else 0
        assert abs(mpmath.mpf(str(v)) - u) <= max(place, floor), (v, u)


@GRID_DATA
@given(grid_digits, grid_sizes)
def test_decimal_sine_grid_data_are_within_one_place(digits, n):
    field = bigdecimal(digits)
    problem = sine_bvp(field)
    grid = _grid(problem, n, field)
    exact, rhs = problem.exact(grid), problem.rhs(grid)
    assert len(exact) == n + 1 and len(rhs) == n - 1
    with mpmath.workdps(digits + 20):
        # |sin| < 1 here; the rotation's error is absolute, so at x = 0 the
        # value is far below 10^-digits but not 0
        floor = mpmath.mpf(10) ** -digits
        reference = [mpmath.sin(mpmath.mpf(str(x))) for x in grid.x]
        _within_last_place(exact, reference, digits, floor)
        _within_last_place(rhs, [-u for u in reference[1:-1]], digits, floor)


@GRID_DATA
@given(grid_digits, grid_sizes, power_law_alphas)
def test_decimal_power_law_grid_data_are_within_one_place(digits, n, alpha):
    field = bigdecimal(digits)
    problem = power_law_fractional_bvp(alpha, field)
    grid = _grid(problem, n, field)
    exact = problem.exact(grid)
    with mpmath.workdps(digits + 20):
        e = 3 + mpmath.mpf(alpha.numerator) / alpha.denominator
        _within_last_place(exact, [mpmath.mpf(str(x)) ** e for x in grid.x], digits)
    # the right-hand side keeps the per-point arithmetic, bit for bit
    with field.context():
        gamma_factor = field.gamma(4 + field.of(alpha)) / 6
        assert list(problem.rhs(grid)) == [gamma_factor * x**3 for x in grid.x[1:-1]]


def _within_one_ulp(values, reference):
    return all(abs(v - u) <= math.ulp(u) for v, u in zip(values, reference))


@GRID_DATA
@given(grid_sizes, power_law_alphas)
def test_float64_grid_data_are_within_one_ulp(n, alpha):
    sine = sine_bvp(FLOAT64)
    grid = _grid(sine, n, FLOAT64)
    assert grid.x.dtype == np.float64
    assert _within_one_ulp(sine.exact(grid), [math.sin(x) for x in grid.x.tolist()])
    assert _within_one_ulp(sine.rhs(grid), [-math.sin(x) for x in grid.x[1:-1].tolist()])
    power_law = power_law_fractional_bvp(alpha, FLOAT64)
    grid = _grid(power_law, n, FLOAT64)
    e = 3 + float(alpha)
    assert _within_one_ulp(power_law.exact(grid), [x**e for x in grid.x.tolist()])


# integer pairs for the quotient every coefficient is rounded through: up to
# 3000 digits either side, exact quotients, terminating decimals 2^a 5^b,
# binary ties, and zero; the sign sits on either part
QUOTIENT = settings(max_examples=300, deadline=None, derandomize=True, database=None)
quotient_digits = st.sampled_from([15, 20, 50, 80])
huge = st.integers(1, 10**3000) | st.integers(1, 10**40)
signs = st.sampled_from([1, -1])


def _signed(pair, num_sign, den_sign):
    return num_sign * pair[0], den_sign * pair[1]


quotient_pairs = st.builds(_signed, st.one_of(
    st.tuples(huge | st.just(0), huge),
    st.builds(lambda q, den: (q * den, den), huge, huge),
    st.builds(lambda n, a, b: (n, 2**a * 5**b), huge, st.integers(0, 400), st.integers(0, 400)),
    st.builds(lambda odd, a, b: (odd * 2**a, 2**b),
              st.integers(2**53, 2**54).map(lambda k: 2 * k + 1), st.integers(0, 1100),
              st.integers(0, 1100)),
), signs, signs)


def _decimal_reference(num, den, digits):
    # Decimal division of the pair with its sign on the numerator: a zero
    # quotient is +0, as for Fraction(num, den) in the other fields
    if den < 0:
        num, den = -num, -den
    return str(Context(prec=digits).divide(Decimal(num), Decimal(den)))


def _float_outcome(call):
    # repr tells -0.0 from 0.0
    try:
        return repr(call())
    except OverflowError:
        return "OverflowError"


@QUOTIENT
@given(quotient_pairs, quotient_digits)
def test_quotient_is_correctly_rounded(pair, digits):
    num, den = pair
    assert str(bigdecimal(digits)._quotient(num, den)) == _decimal_reference(num, den, digits)
    assert RATIONAL._quotient(num, den) == F(num, den)
    assert _float_outcome(lambda: FLOAT64._quotient(num, den)) == \
        _float_outcome(lambda: float(F(num, den)))


@QUOTIENT
@given(quotient_digits, st.data())
def test_quotient_rounds_decimal_ties_to_even(digits, data):
    # (10 c + 5) / 10^t has digits + 1 significant digits and ends in 5; the
    # pair carries a common factor, so it is not reduced
    c = data.draw(st.integers(10 ** (digits - 1), 10**digits - 1) | st.just(10**digits - 1))
    t = data.draw(st.integers(-60, 3000))
    factor = data.draw(st.sampled_from([1, 3, 2**70, 7 * 5**9]))
    num, den = (10 * c + 5) * factor * 10 ** max(-t, 0), factor * 10 ** max(t, 0)
    num, den = _signed((num, den), data.draw(signs), data.draw(signs))
    got = str(bigdecimal(digits)._quotient(num, den))
    assert got == _decimal_reference(num, den, digits)
    assert got == str(bigdecimal(digits).of(F(num, den)))


small_rationals = st.fractions(min_value=-9, max_value=9, max_denominator=9)


@PROPERTY
@given(small_rationals, st.fractions(min_value=F(1, 8), max_value=20, max_denominator=9),
       small_rationals, small_rationals, st.lists(small_rationals, min_size=1, max_size=6),
       st.integers(2, 20))
def test_rational_unified_collocation_equals_dense_elimination(a, width, ua, ub, poly, n):
    def rhs(grid):
        return [sum(c * x**k for k, c in enumerate(poly)) for x in grid.x[1:-1]]

    problem = BvpProblem(a=a, b=a + width, ua=ua, ub=ub, rhs=rhs, alpha=2, field=RATIONAL)
    want = solve_dense(*assemble_unified(problem, n, RATIONAL), RATIONAL)
    assert list(solve_bvp(problem, "unified", n).solution) == [ua, *want, ub]


def _fraction_power(base, gamma):
    """P(z)^gamma by repeated convolution in Fraction arithmetic."""
    out = [F(1)]
    for _ in range(gamma):
        out = [sum((out[i] * base[k - i] for i in range(len(out)) if 0 <= k - i < len(base)), F(0))
               for k in range(len(out) + len(base) - 1)]
    return out


# zero and negative entries, and a zero constant term, among them
power_bases = st.tuples(st.just(F(0)) | small_rationals,
                        st.lists(st.just(F(0)) | small_rationals, max_size=5))


@PROPERTY
@given(power_bases, st.integers(1, 4))
def test_integer_power_of_fractions_is_fraction_convolution(base, gamma):
    base = (base[0], *base[1])
    got = poly_power_int(base, gamma)
    assert list(got) == _fraction_power(base, gamma)
    assert all(type(c) is F for c in got)


stencil_shapes = st.tuples(st.integers(1, 4), st.integers(1, 6),
                           st.fractions(min_value=-2, max_value=8, max_denominator=2))


@PROPERTY
@given(stencil_shapes, st.integers(1, 3), st.fractions(min_value=F(1, 16), max_value=4), st.data())
def test_rational_stencil_on_exact_samples_is_fraction_dot_product(shape, gamma, h, data):
    d, p, r = shape
    st_ = compact_stencil(d, p, r) if gamma == 1 else noncompact_stencil(gamma * d, d, p, r)
    size = len(st_.weights)
    samples = data.draw(st.lists(small_rationals | st.integers(-50, 50), min_size=size,
                                 max_size=size))
    want = sum((w * F(v) for w, v in zip(st_.weights, samples)), F(0)) / h**st_.derivative_order
    got = apply_stencil(st_, samples, 0, h)
    assert got == want and type(got) is F
    # float samples enter the field exactly: the dot product of their exact values
    floats = [float(v) / 3 for v in samples]
    want = sum((w * F(v) for w, v in zip(st_.weights, floats)), F(0)) / h**st_.derivative_order
    got = apply_stencil(st_, floats, 0, h)
    assert got == want and type(got) is F


@PROPERTY
@given(orders, accuracies, shifts, alphas, st.sampled_from([RATIONAL, FLOAT64, bigdecimal(50)]))
def test_exact_betas_are_read_on_demand(d, p, r, alpha, field):
    params = derive_params(alpha, d, p, r, field)
    cv = beta_coefficients(params)
    assert "exact_beta" not in vars(cv)
    assert cv.beta == tuple(field.of(b) for b in cv.exact_beta)


@PROPERTY
@given(orders, accuracies, shifts, alphas, alphas)
def test_equal_lams_share_one_node_polynomial(d, p, lam, alpha, other):
    # different (alpha, r) of one lam = r d / alpha and one N build Pi once
    build = explicit_form._node_polynomial
    build.cache_clear()
    for a in (alpha, other):
        params = derive_params(a, d, p, lam * a / d)
        error_coefficients(beta_coefficients(params), p)
        assert params.lam == lam
    assert build.cache_info().misses == 1


def _exact_convolution(a, b):
    """The first len(b) terms of the convolution of a and b, in Fractions."""
    return [sum((F(a[j]) * F(b[k - j]) for j in range(min(k + 1, len(a)))), F(0))
            for k in range(len(b))]


# signed decimals from 0 to 111 digits whose exponents span 130 decades
wide_decimals = st.just(Decimal(0)) | st.builds(lambda c, e: Decimal(f"{c}E{e}"),
                                                st.integers(-10**111, 10**111),
                                                st.integers(-90, 40))
decimal_series = st.lists(wide_decimals, min_size=1, max_size=80)
_PI = "3.14159265358979323846264338327950288419716939937510582097494459230781640628"


def _least_exponent(values):
    """The least exponent of the nonzero Decimals in ``values``, or 0 if that is positive."""
    return min([v.as_tuple().exponent for v in values if v] + [0])


@PROPERTY
@example(15, [Decimal(_PI)], [Decimal(1), Decimal("-1E-60")], False)
@example(100, [Decimal("-" + _PI), Decimal("1E-90")], [Decimal(_PI + "1"), Decimal(0)], False)
@example(50, [Decimal(1)] * 80, [Decimal("1E-40")] * 80, True)
# trailing zeros, and zeros of negative exponents ahead of them: the exponents show in the reprs
@example(30, [Decimal("1.20"), Decimal("-3.500")], [Decimal("2.0"), Decimal("0.10")], False)
@example(15, [Decimal(0), Decimal("0.000"), Decimal("1.20")],
         [Decimal("0E-5"), Decimal(0), Decimal("4.00"), Decimal("1E+3")], False)
@example(20, [Decimal("0E-7")] * 3 + [Decimal("5E+2")], [Decimal("0.0")] * 2 + [Decimal("3")] * 2,
         False)
@given(st.integers(15, 100), decimal_series, decimal_series, st.booleans())
def test_decimal_series_product_is_each_exact_sum_rounded_once(digits, a, b, zero_b):
    field = bigdecimal(digits)
    if zero_b:
        b = [Decimal(0)] * len(b)
    got = _convolve(np.array(a, dtype=object), np.array(b, dtype=object), field)
    assert got.dtype == object and len(got) == len(b)
    want = _exact_convolution(a, b)
    assert all(type(y) is Decimal and y == field.of(w) for y, w in zip(got, want))
    # each term is the exact sum on the least exponents of a[:len(b)] and b,
    # rounded once: a sum of fewer digits than the field keeps that exponent
    exponent = _least_exponent(a[:len(b)]) + _least_exponent(b)
    assert [y.as_tuple().exponent for y in got] == [
        max(exponent, y.adjusted() - digits + 1) if y else exponent for y in got]


wide_fractions = st.just(F(0)) | st.builds(F, st.integers(-10**40, 10**40), st.integers(1, 10**30))


@PROPERTY
@given(st.lists(wide_fractions, min_size=1, max_size=80),
       st.lists(wide_fractions, min_size=1, max_size=80), st.booleans())
def test_rational_series_product_is_the_exact_sum(a, b, zero_b):
    if zero_b:
        b = [F(0)] * len(b)
    got = _convolve(np.array(a, dtype=object), np.array(b, dtype=object), RATIONAL)
    assert list(got) == _exact_convolution(a, b) and all(type(y) is F for y in got)
