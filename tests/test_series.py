"""Generator expansions: binomial weights, the Miller recurrence (a banded
triangular solve), integer convolution powers, and the unit-disk convergence
diagnostic."""

import decimal
import hashlib
import itertools
import math
import random
import sys
from fractions import Fraction as F

import numpy as np
import pytest

import diffgen.series as series
import diffgen.solvers as solvers
from diffgen import (
    FLOAT64,
    RATIONAL,
    ExactnessError,
    beta_coefficients,
    bigdecimal,
    convergence_diagnostic,
    derive_params,
    grunwald_weights,
    miller_expand,
    poly_power_int,
)

from reference_tables import NONCOMPACT_BASE, NONCOMPACT_SQUARED


def test_grunwald_values():
    assert grunwald_weights(1, 3) == (1, -1, 0)
    assert grunwald_weights(F(1, 2), 3) == (1, F(-1, 2), F(-1, 8))
    assert grunwald_weights(2, 4) == (1, -2, 1, 0)


def test_grunwald_first_weights_random():
    rng = random.Random(7)
    for _ in range(20):
        alpha = F(rng.randint(1, 30), rng.randint(1, 10))
        w = grunwald_weights(alpha, 3)
        assert w[0] == 1
        assert w[1] == -alpha
        assert w[2] == alpha * (alpha - 1) / 2


def test_grunwald_partial_sums_decay():
    # partial sums of (1-z)^(1/2) are the weights of (1-z)^(-1/2):
    # positive and strictly decreasing
    w = grunwald_weights(F(1, 2), 40)
    sums = []
    total = F(0)
    for g in w:
        total += g
        sums.append(total)
    assert all(s > 0 for s in sums)
    assert all(a > b for a, b in zip(sums, sums[1:]))


def test_grunwald_validation():
    with pytest.raises(ValueError):
        grunwald_weights(F(1, 2), 0)


def test_miller_reproduces_grunwald():
    for alpha in (F(1, 2), F(8, 5), 2, F(7, 4)):
        ws = miller_expand((1, -1), alpha, 8)
        assert ws.weights == grunwald_weights(alpha, 8)


def test_miller_integer_square():
    base = NONCOMPACT_BASE
    ws = miller_expand(base, 2, 7)
    assert ws.weights == NONCOMPACT_SQUARED
    assert ws.weights == poly_power_int(base, 2)


def test_miller_matches_convolution_random():
    rng = random.Random(13)
    for _ in range(12):
        n = rng.randint(1, 6)
        base = [F(rng.randint(1, 6), rng.randint(1, 3))]
        base += [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n - 1)]
        gamma = rng.randint(1, 4)
        full = poly_power_int(base, gamma)
        k = len(full) + 2
        ws = miller_expand(base, gamma, k)
        assert ws.weights == full + (F(0),) * (k - len(full))


def test_miller_integer_power_truncates_to_zero():
    # degree (N-1)*gamma, all later weights exactly zero
    ws = miller_expand((1, -2, 1), 3, 12)
    assert ws.weights[7:] == (0,) * 5
    assert ws.weights[6] == 1


def test_miller_integer_power_of_zero_leading_coefficient():
    # integer powers take the convolution, so beta_0 = 0 is no division by zero
    beta = beta_coefficients(derive_params(6, 2, 2, 6)).beta
    assert beta[0] == 0
    full = poly_power_int(beta, 3)
    assert miller_expand(beta, 3, 16).weights == full + (0,) * (16 - len(full))
    assert miller_expand(beta, 3, 4).weights == full[:4]
    assert miller_expand(beta, 0, 3).weights == (1, 0, 0)


def test_miller_exact_square_root():
    ws = miller_expand((F(9, 4), 1), F(1, 2), 3)
    assert ws.weights[0] == F(3, 2)
    assert ws.weights[1] == F(1, 3)
    assert ws.weights[2] == F(-1, 27)


def test_miller_rational_field_refuses_irrational_seed():
    with pytest.raises(ExactnessError):
        miller_expand((3, -1), F(1, 2), 4)


def test_miller_negative_integer_power():
    ws = miller_expand((2, 1), -1, 5)
    assert ws.weights == (F(1, 2), F(-1, 4), F(1, 8), F(-1, 16), F(1, 32))


def test_miller_validation():
    with pytest.raises(ValueError):
        miller_expand((), 2, 4)
    with pytest.raises(ValueError):
        miller_expand((1, -1), F(1, 2), 0)
    with pytest.raises(ValueError):
        miller_expand((-1, 1), F(1, 2), 4)
    with pytest.raises(ZeroDivisionError):
        miller_expand((0, 1), -1, 4)


FIELDS = [RATIONAL, FLOAT64, bigdecimal(50)]


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_miller_band_edge_cases(field):
    # (z - 2)^-1 = -1/2 sum (z/2)^k: a negative integer power of a base with a
    # negative leading coefficient, exact in every field
    base = tuple(field.of(b) for b in (-2, 1))
    assert miller_expand(base, -1, 6, field).weights == tuple(-F(1, 2 ** k) for k in range(1, 7))
    # a single weight, and fewer weights than the base has coefficients
    assert miller_expand((4, -3, 1, 2), F(1, 2), 1, field).weights == (2,)
    assert miller_expand((4, -3, 1, 2), F(1, 2), 2, field).weights == (2, F(-3, 4))
    assert miller_expand((4, -3, 1, 2), F(-1, 2), 3, field).weights == (
        F(1, 2), F(3, 16), F(11, 256))
    # a degree-0 base: the constant b0^gamma, then zeros
    assert miller_expand((4,), F(-1, 2), 5, field).weights == (F(1, 2), 0, 0, 0, 0)


@pytest.mark.parametrize("call, name", [
    pytest.param(lambda: miller_expand((1.0, -1.0), math.nan, 4, FLOAT64), "exponent gamma",
                 id="f64-nan-gamma"),
    pytest.param(lambda: miller_expand((1.0, -1.0), -math.inf, 4, FLOAT64), "exponent gamma",
                 id="f64-inf-gamma"),
    pytest.param(lambda: miller_expand((math.inf, 1.0), 0.5, 4, FLOAT64), "base coefficient 0",
                 id="f64-inf-b0"),
    pytest.param(lambda: miller_expand((1.0, math.nan), -1, 4, FLOAT64), "base coefficient 1",
                 id="f64-nan-b1"),
    pytest.param(lambda: miller_expand((1.0, math.inf), 2, 4, FLOAT64), "base coefficient 1",
                 id="f64-inf-b1-integer-power"),
    pytest.param(lambda: miller_expand((1, -1), decimal.Decimal("NaN"), 4, bigdecimal(30)),
                 "exponent gamma", id="decimal-nan-gamma"),
    pytest.param(lambda: miller_expand((1, decimal.Decimal("-Infinity")), F(1, 2), 4,
                                       bigdecimal(30)), "base coefficient 1", id="decimal-inf-b1"),
    pytest.param(lambda: grunwald_weights(math.inf, 4, FLOAT64), "alpha", id="grunwald-f64-inf"),
    pytest.param(lambda: grunwald_weights(decimal.Decimal("NaN"), 4, bigdecimal(30)), "alpha",
                 id="grunwald-decimal-nan"),
])
def test_non_finite_expansion_input_is_refused(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be a finite number in the"):
        call()


@pytest.mark.parametrize("base, gamma, truncation, index", [
    # the first index whose exact weight exceeds the largest double
    ((1.0, -3.0), -0.5, 800, 650),  # weights grow like 3^m
    # a negative integer power takes the banded solve too: 2^m is finite
    # up to m = 1023
    ((1.0, -2.0), -1, 1100, 1024),
])
def test_float64_overflow_is_refused(base, gamma, truncation, index):
    with pytest.raises(OverflowError, match=rf"^double-precision weight {index} of P\(z\)\^"
                                            r".* is not finite; expand in a decimal field"):
        miller_expand(base, gamma, truncation, FLOAT64)
    # one weight fewer is finite, and a decimal field carries the whole series
    assert math.isfinite(miller_expand(base, gamma, index, FLOAT64).weights[-1])
    weights = miller_expand(base, gamma, truncation, bigdecimal(30)).weights
    assert weights[index].is_finite()
    # and the refused weight is the first whose exact value is out of range
    assert abs(weights[index]) > sys.float_info.max >= abs(weights[index - 1])


def test_float64_grunwald_overflow_is_refused():
    # the product g_{k-1} (k - 1 - alpha) leaves the range before its
    # division by k: weight 271 is refused, though the exact weights stay in
    # range up to 274
    alpha = F(3001, 2)
    with pytest.raises(OverflowError, match=r"^double-precision weight 271 of \(1 - z\)\^1500\.5 "
                                            r"is not finite; expand in a decimal field"):
        grunwald_weights(alpha, 800, FLOAT64)
    assert all(map(math.isfinite, grunwald_weights(alpha, 271, FLOAT64)))
    weights = grunwald_weights(alpha, 800, bigdecimal(30))
    assert all(w.is_finite() for w in weights)
    assert abs(weights[275]) > sys.float_info.max >= abs(weights[274])


def test_float64_integer_power_overflow_is_refused():
    # the convolution power (1 - 3z)^700 is refused at its weight 240, the
    # first whose exact value leaves the double range, as the banded solve
    # and the Grunwald weights refuse theirs; a decimal field carries it
    with pytest.raises(OverflowError, match=r"^double-precision weight 240 of P\(z\)\^700\.0 "
                                            r"is not finite; expand in a decimal field"):
        miller_expand((1.0, -3.0), 700, 700, FLOAT64)
    assert all(map(math.isfinite, miller_expand((1.0, -3.0), 700, 240, FLOAT64).weights))
    weights = miller_expand((1, -3), 700, 700, bigdecimal(30)).weights
    assert abs(weights[240]) > sys.float_info.max >= abs(weights[239])
    # in range, the integer power is the exact convolution rounded as before
    assert miller_expand((1.0, -3.0), 3, 6, FLOAT64).weights == (1.0, -9.0, 27.0, -27.0, 0.0, 0.0)


def test_bool_truncation_is_refused():
    for call in (lambda t: miller_expand((1, -1), F(1, 2), t),
                 lambda t: miller_expand((1.0, -1.0), 0.5, t, FLOAT64),
                 lambda t: grunwald_weights(F(1, 2), t)):
        for truncation in (True, False):
            with pytest.raises(ValueError, match="truncation must be a positive integer"):
                call(truncation)


def test_float64_expansion_at_4096_weights():
    weights = miller_expand((1.5, -2.0, 0.5), -0.75, 4096, FLOAT64).weights
    # the base and exponent are exact in f64: within K unit roundoffs of the
    # largest weight of the 50-digit forward substitution
    big = bigdecimal(50)
    ref = miller_expand((F(3, 2), -2, F(1, 2)), F(-3, 4), 4096, big).weights
    with big.context():
        gap = max(abs(decimal.Decimal(w) - r) for w, r in zip(weights, ref))
        assert gap <= 4096 * decimal.Decimal(2) ** -53 * max(map(abs, ref))


def test_float64_series_grown_by_a_study_is_one_expansion():
    # a study keeps each generator's series and grows it from the kept head
    # (solvers._series): 16, 1024 and then 4096 terms of P(z)^gamma and of
    # P(z)^-gamma equal one fresh expansion to 4096 terms, bit for bit
    cv = beta_coefficients(derive_params(F(8, 5), 2, 2, 1, FLOAT64))
    generator = (cv, None, {}, {})  # a memo entry of solvers._generator, empty
    for gamma in (cv.params.gamma, -cv.params.gamma):
        fresh = miller_expand(cv.beta, gamma, 4096, FLOAT64).weights
        for length in (16, 1024, 4096):
            grown = solvers._series(generator, gamma, length)
            assert [w.hex() for w in grown.tolist()] == [w.hex() for w in fresh[:length]]


@pytest.mark.parametrize("field", [RATIONAL, FLOAT64, bigdecimal(30)], ids=lambda f: f.name)
@pytest.mark.parametrize("gamma", [F(1, 2), F(-1, 2), F(-5, 2)], ids=str)
def test_expansion_grown_from_a_head_is_the_full_expansion(field, gamma):
    # a kept prefix seeds the longer expansion (and the exact and decimal
    # fields continue the recurrence after it): the terms are those of one
    # expansion at the full length, to the repr (f64: to the bit)
    with field.context():
        base = tuple(field.of(b) for b in (F(9, 4), -3, 1, F(-1, 8)))
        gamma = field.of(gamma)
        full = series._expand(base, gamma, 48, field)
        for k in (1, 2, 3, 4, 17, 47, 48):
            grown = series._expand(base, gamma, 48, field, series._expand(base, gamma, k, field))
            assert repr(grown) == repr(full), k


def _band_table_expansion(base, gamma, truncation, head):
    """The double-precision recurrence as a numpy band table: row m holds
    (m - k - k gamma) b_k / m for k = deg .. 1, and 0.0 where k > m, against
    deg zeros below w_0; each row is summed on Python floats from k = deg."""
    deg = len(base) - 1
    m, k = np.arange(len(head), truncation)[:, None], np.arange(deg, 0, -1)
    rows = np.where(k <= m, (m - k - k * gamma) * np.array(base[:0:-1]) / m, 0.0)
    w = [0.0] * deg + list(head)
    for row in rows.tolist():
        acc = 0.0
        for c, x in zip(row, w[-deg:]):
            acc -= c * x
        w.append(acc / base[0])
    return w[deg:]


@pytest.mark.parametrize("p", range(1, 8))
def test_float64_recurrence_has_the_band_table_bits(p):
    # every generator with beta_0 > 0 at d = 1..3 and r = 0, 1, to 4096
    # weights or up to its first overflow (refused there), and grown to 64
    # weights from heads of length 1, deg - 1, deg and 17, bit for bit
    for d, r, alpha in itertools.product((1, 2, 3), (0, 1), (F(3, 2), F(8, 5), F(23, 16), F(7, 4))):
        cv = beta_coefficients(derive_params(alpha, d, p, r, FLOAT64))
        base, deg = cv.beta, len(cv.beta) - 1
        if not base[0] > 0:
            continue
        for gamma in (cv.params.gamma, -cv.params.gamma):
            want = [x.hex() for x in _band_table_expansion(base, gamma, 4096,
                                                           [FLOAT64.power(base[0], gamma)])]
            finite = next((i for i, x in enumerate(want) if not math.isfinite(float.fromhex(x))),
                          4096)
            if finite < 4096:
                with pytest.raises(OverflowError, match=f"^double-precision weight {finite} "):
                    series._expand(base, gamma, finite + 1, FLOAT64)
            got = series._expand(base, gamma, finite, FLOAT64)
            assert [x.hex() for x in got] == want[:finite], (d, r, alpha, gamma)
            for length in {1, deg - 1, deg, 17} - {0}:
                grown = series._expand(base, gamma, 64, FLOAT64, got[:length])
                assert [x.hex() for x in grown] == want[:64], (d, r, alpha, gamma, length)


def _expansions_digest():
    big = bigdecimal(50)
    series_list = []
    for base, gamma in [((1, -1), F(1, 2)), ((1, -1), F(-1, 2)), ((1, -1), F(8, 5)),
                        ((1, -1), F(-7, 4)), ((F(9, 4), 1), F(1, 2)), ((F(9, 4), 1), F(-1, 2)),
                        ((4, -3, F(1, 2), F(1, 8)), F(1, 2)), ((4, -3, F(1, 2), F(1, 8)), F(-1, 2)),
                        ((2, 1), -1), ((2, 1), -3), (NONCOMPACT_BASE, -2)]:
        series_list.append(miller_expand(base, gamma, 40).weights)
    for alpha in (F(23, 16), F(47, 32), F(8, 5), F(127, 64)):
        for d, p, r in ((2, 2, 1), (1, 3, 1), (2, 3, 0)):
            params = derive_params(alpha, d, p, r, big)
            cv = beta_coefficients(params)
            for gamma in (params.gamma, -params.gamma):
                series_list.append(miller_expand(cv.beta, gamma, 64, big).weights)
    text = "\n".join(repr(w) for weights in series_list for w in weights)
    return hashlib.sha256(text.encode()).hexdigest()


def test_exact_and_decimal_expansions_are_unchanged():
    # 35 rational and 50-digit series (1,976 weights) as reprs; the digest
    # was taken before the f64 path became a banded solve, and the exact and
    # decimal paths must not move
    digest = "de19e6581f038e1ddc334ab88e33c9032982163b0dc241c1838fcbc466e611cf"
    assert _expansions_digest() == digest


def _formal_power(base, gamma, k):
    """Exact oracle for p(z)**gamma / p(0)**gamma via exp(gamma*log(1+q))."""
    b0 = base[0]
    q = [F(c, 1) / b0 for c in base[1:]]
    q += [F(0)] * (k - len(q))

    def mul(a, b):
        out = [F(0)] * k
        for i, av in enumerate(a):
            if av:
                for j, bv in enumerate(b[: k - i]):
                    out[i + j] += av * bv
        return out

    logp = [F(0)] * k
    qn = [F(1)] + [F(0)] * (k - 1)
    for n in range(1, k):
        qn = mul(qn, [F(0)] + q[: k - 1])
        for i in range(k):
            logp[i] += F((-1) ** (n + 1), n) * qn[i]
    scaled = [gamma * c for c in logp]
    out = [F(1)] + [F(0)] * (k - 1)
    term = [F(1)] + [F(0)] * (k - 1)
    for n in range(1, k):
        term = mul(term, scaled)
        for i in range(k):
            out[i] += term[i] / __import__("math").factorial(n)
    return out


def test_miller_decimal_against_formal_series():
    base = (F(3, 4), F(-5, 4), F(1, 4), F(1, 4))
    gamma = F(4, 5)
    big = bigdecimal(40)
    ws = miller_expand(base, gamma, 8, field=big)
    with big.context():
        w0 = big.power(big.of(base[0]), big.of(gamma))
        ref = _formal_power(base, gamma, 8)
        for got, rel in zip(ws.weights, ref):
            want = w0 * big.of(rel)
            assert abs(got - want) < decimal.Decimal("1e-30")
    assert float(ws.weights[0]) == pytest.approx(0.75 ** 0.8, rel=1e-15)


def test_poly_power_int():
    assert poly_power_int((1, -1), 2) == (1, -2, 1)
    assert poly_power_int(NONCOMPACT_BASE, 2) == NONCOMPACT_SQUARED
    assert poly_power_int((F(1, 3), 5, -2), 1) == (F(1, 3), 5, -2)
    with pytest.raises(ValueError):
        poly_power_int((1, -1), 0)
    with pytest.raises(ValueError):
        poly_power_int((1, -1), F(3, 2))
    with pytest.raises(ValueError, match="gamma must be a positive integer, got True"):
        poly_power_int((1, -1), True)
    for gamma in (1, 2):
        with pytest.raises(ValueError, match="^base polynomial must have at least one coefficient$"):
            poly_power_int((), gamma)


def test_convergence_diagnostic_cases():
    def diag(alpha):
        return convergence_diagnostic(
            beta_coefficients(derive_params(alpha, 2, 2, 1)))

    d = diag(F(8, 5))
    assert (d.beta0_positive, d.edge_ratio) == (True, F(1, 3))
    assert d.converges_on_unit_disk and not d.advisory
    d = diag(F(4, 3))
    assert d.edge_ratio == 1 and not d.converges_on_unit_disk
    d = diag(F(6, 5))
    assert d.edge_ratio == 2 and not d.converges_on_unit_disk
    d = diag(F(133, 100))
    assert d.edge_ratio == F(67, 66) and not d.converges_on_unit_disk


def test_convergence_diagnostic_advisory_outside_p2():
    d = convergence_diagnostic(beta_coefficients(derive_params(F(8, 5), 2, 3, 1)))
    assert d.advisory


def test_convergence_diagnostic_zero_leading():
    cv = beta_coefficients(derive_params(2, 2, 2, 2))
    assert cv.beta[0] == 0
    with pytest.raises(ZeroDivisionError):
        convergence_diagnostic(cv)


def test_weight_series_seed_is_beta0_power():
    cv = beta_coefficients(derive_params(F(8, 5), 2, 2, 1, bigdecimal(30)))
    big = bigdecimal(30)
    ws = miller_expand(cv.beta, cv.params.gamma, 5, field=big)
    with big.context():
        seed = big.power(cv.beta[0], big.of(cv.params.gamma))
        assert abs(ws.weights[0] - seed) < decimal.Decimal("1e-28")
