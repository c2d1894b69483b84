"""Closed-form coefficients: parameters, denominators, numerators, betas,
error coefficients, and the frozen table regressions."""

import hashlib
import math
import random
from decimal import Decimal
from fractions import Fraction as F

import pytest

from diffgen import (
    FLOAT64,
    RATIONAL,
    beta_coefficients,
    bigdecimal,
    denominators,
    derive_params,
    error_coefficients,
    numerators,
)
from diffgen import explicit_form
from diffgen.oracle import OpCount, consistency_moments

from reference_tables import (
    BETA_POLY,
    COMPACT_ROWS,
    LAMBDA_SAMPLES,
    ORDER_P_AT_ZERO,
    beta_row,
)


def test_derive_params_examples():
    p = derive_params(2, 2, 4, 1)
    assert (p.lam, p.n_coeffs) == (1, 6)
    p = derive_params(1, 1, 1, 0)
    assert (p.lam, p.n_coeffs) == (0, 2)
    p = derive_params(2, 2, 4, F(3, 2))
    assert (p.lam, p.n_coeffs) == (F(3, 2), 6)
    assert p.gamma == 1


def test_derive_params_lambda_reconstruction():
    rng = random.Random(3)
    for _ in range(25):
        alpha = F(rng.randint(1, 40), rng.randint(1, 9))
        r = F(rng.randint(-12, 12), rng.randint(1, 6))
        d = rng.randint(1, 4)
        params = derive_params(alpha, d, rng.randint(1, 5), r)
        assert params.lam * alpha == r * d


def test_derive_params_validation():
    with pytest.raises(ValueError):
        derive_params(1, 0, 2, 0)
    with pytest.raises(ValueError):
        derive_params(1, 2, 0, 0)
    with pytest.raises(ValueError):
        derive_params(0, 1, 1, 0)
    with pytest.raises(ValueError):
        derive_params(-2, 2, 2, 1)
    with pytest.raises(ValueError):
        derive_params(1, 1.0, 2, 0)  # d must be a true int


@pytest.mark.parametrize("args, field, name", [
    ((1, True, 1, 0), RATIONAL, "order d"),
    ((1, 1, True, 0), RATIONAL, "order p"),
    ((math.inf, 1, 1, 0), RATIONAL, "alpha"),
    ((math.inf, 1, 1, 0), FLOAT64, "alpha"),
    ((1, 1, 1, math.nan), FLOAT64, "shift r"),
    ((1, 1, 1, Decimal("Infinity")), bigdecimal(30), "shift r"),
    ((1e-300, 1, 1, 1e300), FLOAT64, "lam"),
])
def test_derive_params_input_contract(args, field, name):
    # refused up front with a ValueError naming the parameter, never a stray
    # OverflowError from the kernel or a silent nan
    with pytest.raises(ValueError, match=name):
        derive_params(*args, field=field)


def test_denominator_values():
    assert denominators(1, 2) == (-2, 1, -2)
    assert denominators(2, 3) == (12, -3, 2, -3, 12)
    assert denominators(1, 1) == (1, -1)


def test_denominators_closed_form():
    for d in range(1, 5):
        for p in range(1, 7):
            n = p + d
            got = denominators(d, p)
            want = tuple(
                F((-1) ** ((p - 1 - j) % 2), math.factorial(d))
                * math.factorial(j)
                * math.factorial(n - 1 - j)
                for j in range(n)
            )
            assert got == want


def test_denominators_cached_and_shift_free():
    # same (d, p) returns the identical cached tuple; it takes no alpha or r
    assert denominators(2, 3) is denominators(2, 3)


def test_denominators_validation():
    with pytest.raises(ValueError):
        denominators(0, 2)
    with pytest.raises(ValueError):
        denominators(2, 0)


def test_numerator_values():
    assert numerators(derive_params(1, 1, 2, 0)) == (-3, -2, -1)
    assert numerators(derive_params(2, 2, 3, 0))[4] == 11
    assert numerators(derive_params(1, 1, 1, F(5, 7))) == (1, 1)


def test_numerators_tally_quadratic():
    tally = OpCount()
    numerators(derive_params(10, 10, 10, 1), tally)
    # the node polynomial and N synthetic divisions of p - 1 steps, nowhere
    # near the C(19,9)-term direct sum
    assert tally.additions <= 1000
    assert tally.multiplications <= 1000
    assert tally.additions > 0


def test_numerators_tally_counts_the_divisions():
    # building Pi takes N(N-1)/2 additions; each nonzero node then takes d
    # subtractions and d + 1 divisions (tallied as multiplications), a zero
    # node none
    tally = OpCount()
    numerators(derive_params(10, 10, 10, 1), tally)  # nodes 1 - m, one of them zero
    assert (tally.additions, tally.multiplications) == (190 + 19 * 10, 209 + 19 * 11)
    tally = OpCount()
    numerators(derive_params(2, 2, 3, F(1, 2)), tally)  # no zero node
    assert (tally.additions, tally.multiplications) == (10 + 5 * 2, 14 + 5 * 3)


def test_beta_examples():
    cv = beta_coefficients(derive_params(3, 3, 4, 3))
    assert cv.beta == (F(-1, 8), 1, F(-13, 8), 0, F(13, 8), -1, F(1, 8))
    cv = beta_coefficients(derive_params(2, 1, 3, 1))
    assert cv.beta == (F(23, 24), F(-7, 8), F(-1, 8), F(1, 24))
    cv = beta_coefficients(derive_params(F(4, 5), 1, 2, 1))
    assert cv.params.lam == F(5, 4)
    assert cv.beta == (F(1, 4), F(1, 2), F(-3, 4))


def test_beta_parts_multiply_back():
    rng = random.Random(11)
    for _ in range(20):
        d = rng.randint(1, 3)
        p = rng.randint(1, 5)
        lam = F(rng.randint(-8, 8), rng.randint(1, 5))
        cv = beta_coefficients(derive_params(d, d, p, lam))
        for b, nj, dj in zip(cv.beta, numerators(cv.params), denominators(d, p)):
            assert b * dj == nj


def test_consistency_system_exact():
    # sum_j (lam-j)^k beta_j = d! at k = d, zero for the other k < N
    rng = random.Random(5)
    for _ in range(30):
        d = rng.randint(1, 4)
        p = rng.randint(1, 5)
        lam = F(rng.randint(-6, 12), rng.randint(1, 6))
        params = derive_params(d, d, p, lam)
        beta = beta_coefficients(params).beta
        for k in range(params.n_coeffs):
            moment = sum((lam - j) ** k * b for j, b in enumerate(beta))
            assert moment == (math.factorial(d) if k == d else 0)


def test_error_coefficients_match_compact_rows():
    for name, d, p, r, _, err in COMPACT_ROWS:
        cv = beta_coefficients(derive_params(d, d, p, r))
        assert error_coefficients(cv).leading == err, name


def test_error_coefficient_count_window():
    cv = beta_coefficients(derive_params(2, 2, 3, 1))
    errs = error_coefficients(cv, count=3)
    assert sorted(errs.a) == [3, 4, 5]
    assert errs.leading == errs.a[3]
    with pytest.raises(ValueError):
        error_coefficients(cv, count=0)
    with pytest.raises(ValueError):
        error_coefficients(cv, count=4)
    for count in (True, False):
        with pytest.raises(ValueError, match=rf"^count must be an integer in 1\.\.3, got {count}$"):
            error_coefficients(cv, count)


def test_super_convergent_flag():
    # the classical central second difference: configured p = 1 but the
    # h^1 error coefficient vanishes identically
    cv = beta_coefficients(derive_params(2, 2, 1, 1))
    assert cv.beta == (1, -2, 1)
    errs = error_coefficients(cv)
    assert errs.leading == 0
    assert errs.super_convergent
    # a generic choice is not super-convergent
    assert not error_coefficients(beta_coefficients(derive_params(1, 1, 3, 0))).super_convergent


def test_base_polynomial_values():
    assert beta_coefficients(derive_params(1, 1, 1, 0)).beta == (1, -1)
    assert beta_coefficients(derive_params(1, 1, 2, 0)).beta == (F(3, 2), -2, F(1, 2))
    for lam in LAMBDA_SAMPLES:
        got = beta_coefficients(derive_params(2, 2, 2, lam)).beta
        assert got == (2 - lam, 3 * lam - 5, -3 * lam + 4, lam - 1)


def test_order_p_polynomials_at_zero_shift():
    for p, want in ORDER_P_AT_ZERO.items():
        assert beta_coefficients(derive_params(1, 1, p, 0)).beta == want


@pytest.mark.parametrize("d", sorted(BETA_POLY))
def test_beta_tables_sampled(d):
    for p in sorted(BETA_POLY[d]):
        for lam in LAMBDA_SAMPLES:
            got = beta_coefficients(derive_params(d, d, p, lam)).beta
            assert got == beta_row(d, p, lam), (d, p, lam)


def test_central_even_d_is_palindromic():
    # r = (N-1)/2 with alpha = d even: weights read the same both ways
    cv = beta_coefficients(derive_params(2, 2, 3, 2))
    assert cv.beta == tuple(reversed(cv.beta))
    cv = beta_coefficients(derive_params(4, 4, 3, 3))
    assert cv.beta == tuple(reversed(cv.beta))
    # odd d flips sign instead
    cv = beta_coefficients(derive_params(3, 3, 4, 3))
    assert cv.beta == tuple(-b for b in reversed(cv.beta))


def test_mirror_identity():
    # reversing the node order maps beta_j(lam) to (-1)^d beta_{N-1-j}(N-1-lam)
    rng = random.Random(23)
    for _ in range(20):
        d = rng.randint(1, 3)
        p = rng.randint(1, 5)
        n = p + d
        lam = F(rng.randint(-5, 10), rng.randint(1, 4))
        fwd = beta_coefficients(derive_params(d, d, p, lam)).beta
        rev = beta_coefficients(derive_params(d, d, p, (n - 1) - lam)).beta
        assert tuple(reversed(rev)) == tuple((-1) ** d * b for b in fwd)


def test_float_fields_are_correctly_rounded_at_high_p():
    # the exact kernel rounds once, so no digits are lost to cancellation
    cv = beta_coefficients(derive_params(2, 2, 20, F(1, 2), FLOAT64))
    exact = beta_coefficients(derive_params(2, 2, 20, F(1, 2)))
    assert cv.beta == tuple(float(b) for b in exact.beta)
    assert cv.exact_beta == exact.beta
    want = F(6230263909631194841, 13857732946856352153600)
    assert error_coefficients(exact).leading == want
    assert error_coefficients(cv).leading == float(want)
    big = bigdecimal(50)
    cv = beta_coefficients(derive_params(2, 2, 40, F(21, 2), big))
    exact = beta_coefficients(derive_params(2, 2, 40, F(21, 2)))
    assert cv.beta == tuple(big.of(b) for b in exact.beta)
    assert numerators(cv.params) == tuple(big.of(n) for n in numerators(exact.params))


def test_float_and_decimal_fields_track_rational():
    params_exact = derive_params(2, 2, 4, 1)
    exact = beta_coefficients(params_exact).beta
    floats = beta_coefficients(derive_params(2, 2, 4, 1, FLOAT64)).beta
    for e, f in zip(exact, floats):
        assert abs(float(e) - f) < 1e-12
    big = bigdecimal(30)
    decs = beta_coefficients(derive_params(2, 2, 4, 1, big)).beta
    for e, g in zip(exact, decs):
        assert abs(big.of(e) - g) < big.of(F(1, 10**25))


SWEEP_SHIFTS = (F(0), F(1), F(1, 2), F(1, 3), F(2, 3), F(7, 3), F(21, 2), F(5, 7), F(-3, 2),
                F(13, 6))
SWEEP_ACCURACIES = (1, 2, 3, 5, 8, 13, 20, 30)


def _sweep_alphas(d):
    return (F(d), F(d, 2), F(2 * d + 1, 3), F(7 * d, 5))


def _kernel_digest():
    h = hashlib.sha256()
    for field in (RATIONAL, FLOAT64, bigdecimal(20), bigdecimal(50), bigdecimal(80)):
        for d in range(1, 5):
            for alpha in _sweep_alphas(d):
                for p in SWEEP_ACCURACIES:
                    for r in SWEEP_SHIFTS:
                        params = derive_params(alpha, d, p, r, field)
                        cv = beta_coefficients(params)
                        errs = error_coefficients(cv, p).a
                        h.update(repr((d, alpha, p, r, cv.beta, numerators(params),
                                       denominators(d, p, field), cv.exact_beta, numerators(params),
                                       sorted(errs.items()))).encode() + b"\n")
    return h.hexdigest()


def test_kernel_outputs_are_unchanged():
    # 6,400 parameter sets in the rational, f64 and 20-, 50- and 80-digit
    # fields, every output of the kernel as reprs (the sign of a float zero,
    # a Decimal's exponent); the digest was taken before the kernel became
    # synthetic division and remainders of the node polynomial
    digest = "d05cd15f8c75659ab5fd3b83739334a420b4468d0c4eb59f1405b371a7e9168b"
    assert _kernel_digest() == digest


def test_node_polynomial_is_built_once_per_request():
    # beta_coefficients, exact_beta and error_coefficients of one request share
    # one build of the node polynomial; the cache keeping it is bounded
    build = explicit_form._node_polynomial
    assert build.cache_info().maxsize is not None
    for field in (RATIONAL, FLOAT64, bigdecimal(50)):
        build.cache_clear()
        cv = beta_coefficients(derive_params(F(8, 5), 2, 30, F(1, 3), field))
        cv.exact_beta
        error_coefficients(cv, 30)
        numerators(cv.params)
        assert build.cache_info().misses == 1


def test_equal_lams_share_one_node_polynomial():
    # the memo is keyed on lam = a/q and N, so requests that differ in alpha
    # and r, or in the field, but agree in lam and N build Pi once
    build = explicit_form._node_polynomial
    for requests in (
        [(2, 2, 6, 1, RATIONAL), (4, 2, 6, 2, RATIONAL)],
        [(2, 2, 6, 1, RATIONAL), (2, 2, 6, 1, FLOAT64), (2, 2, 6, 1, bigdecimal(50))],
        [(F(3, 2), 2, 5, F(3, 4), RATIONAL), (3, 2, 5, F(3, 2), FLOAT64)],
    ):
        build.cache_clear()
        for alpha, d, p, r, field in requests:
            params = derive_params(alpha, d, p, r, field)
            error_coefficients(beta_coefficients(params), p)
        assert params.lam == 1
        assert build.cache_info().misses == 1, requests


def test_error_coefficients_equal_oracle_moments():
    # a_m = (alpha/d) b_{m+d} for every m = p..2p-1, b the oracle's moment sums;
    # the Hypothesis property covers random shifts up to p = 8, this sweep p = 20
    for d in range(1, 5):
        for alpha in _sweep_alphas(d):
            for p in SWEEP_ACCURACIES[:-1]:
                for r in SWEEP_SHIFTS:
                    cv = beta_coefficients(derive_params(alpha, d, p, r))
                    moments = consistency_moments(cv, 2 * p - 1 + d)
                    want = {m: alpha / d * moments[m + d] for m in range(p, 2 * p)}
                    assert error_coefficients(cv, p).a == want, (d, alpha, p, r)
