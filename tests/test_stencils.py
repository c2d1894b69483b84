"""Stencil construction, named shifts, application, and rendering."""

import json
import math
import random
from fractions import Fraction as F

import pytest

from diffgen import (
    FLOAT64,
    RATIONAL,
    apply_stencil,
    bigdecimal,
    compact_stencil,
    error_coefficients,
    beta_coefficients,
    derive_params,
    noncompact_stencil,
    render_stencil,
    shift_for_kind,
)
from diffgen.decfun import cos as decimal_cos, sin as decimal_sin

from reference_tables import COMPACT_ROWS, NONCOMPACT_SQUARED


def test_shift_for_kind_values():
    assert shift_for_kind("left", 1, 3) == 0
    assert shift_for_kind("right", 3, 4) == 6
    assert shift_for_kind("central", 3, 4) == 3
    assert shift_for_kind("central", 2, 4) == F(5, 2)
    assert shift_for_kind("shifted", 2, 4, 1) == 1
    assert shift_for_kind("staggered", 2, 4, F(3, 2)) == F(3, 2)


def test_shift_for_kind_validation():
    with pytest.raises(ValueError):
        shift_for_kind("shifted", 2, 4, F(3, 2))
    with pytest.raises(ValueError):
        shift_for_kind("staggered", 2, 4, 2)
    with pytest.raises(ValueError):
        shift_for_kind("shifted", 2, 4)
    with pytest.raises(ValueError):
        shift_for_kind("staggered", 2, 4)
    with pytest.raises(ValueError):
        shift_for_kind("upwind", 2, 4, 1)
    # an r for a kind that fixes its shift, even the kind's own shift, is refused
    for kind, r in [("left", F(1, 2)), ("left", 0), ("right", 1), ("central", 3),
                    ("central", F(3, 2))]:
        with pytest.raises(ValueError, match=f"kind '{kind}' fixes its own shift"):
            shift_for_kind(kind, 2, 2, r)


def test_shift_for_kind_extrapolative_warning():
    with pytest.warns(UserWarning):
        assert shift_for_kind("shifted", 1, 3, -1) == -1
    with pytest.warns(UserWarning):
        assert shift_for_kind("shifted", 1, 3, 4) == 4


def test_compact_rows_frozen():
    for name, d, p, r, weights, err in COMPACT_ROWS:
        st = compact_stencil(d, p, r)
        assert st.weights == weights, name
        assert st.leading_error == err, name
        assert st.derivative_order == d
        assert st.accuracy_order == p
        assert st.error_derivative_order == d + p
        assert sum(st.weights) == 0


def test_compact_left_fields():
    st = compact_stencil(1, 3, 0)
    assert st.offsets == (0, -1, -2, -3)
    assert st.shift == 0
    assert st.eval_fraction == 0
    assert st.error_derivative_order == 4


def test_compact_staggered_fields():
    st = compact_stencil(2, 4, F(3, 2))
    assert st.offsets == (F(3, 2), F(1, 2), F(-1, 2), F(-3, 2), F(-5, 2), F(-7, 2))
    assert st.eval_fraction == F(1, 2)


def test_compact_trailing_zero_weight():
    st = compact_stencil(2, 2, 1)
    assert st.weights == (1, -2, 1, 0)


def test_noncompact_squared_base():
    st = noncompact_stencil(2, 1, 3, 1)
    assert st.weights == NONCOMPACT_SQUARED
    assert st.leading_error == F(1, 12)
    assert len(st.weights) == 7
    assert st.offsets == (1, 0, -1, -2, -3, -4, -5)
    assert st.derivative_order == 2
    assert st.error_derivative_order == 5


def test_noncompact_fourth_derivative():
    st = noncompact_stencil(4, 2, 2, 0)
    assert st.weights == (4, -20, 41, -44, 26, -8, 1)
    assert st.leading_error == F(-11, 6)
    # exact for degree < alpha + p = 6
    assert apply_stencil(st, lambda x: x**4, F(0), 1) == 24
    assert apply_stencil(st, lambda x: x**5, F(0), 1) == 0
    # first failure is the leading error times f^(6) = 720
    assert apply_stencil(st, lambda x: x**6, F(0), 1) == 720 * F(-11, 6)


@pytest.mark.parametrize("field", [FLOAT64, bigdecimal(16), bigdecimal(30)], ids=str)
def test_noncompact_weights_are_the_exact_convolution_rounded_once(field):
    # convolving the rounded betas missed 1,434 of these 3,969 weights in value
    # and 387 more in exponent: (3, 1, 3, 0) in f64 gave 6.162037037037036 for ...037
    for gamma in (2, 3, 4):
        for d in (1, 2, 3):
            for p in (1, 2, 3, 5):
                for r in (0, 1, F(1, 2)):
                    st = noncompact_stencil(gamma * d, d, p, r, field)
                    # the rational stencil of the field's own lam, exactly
                    exact = noncompact_stencil(gamma * d, d, p, F(st.base_params.lam) * gamma)
                    want = [field.of(w) for w in exact.weights]
                    assert list(map(repr, st.weights)) == list(map(repr, want)), (gamma, d, p, r)
    st = noncompact_stencil(3, 1, 3, 0, FLOAT64)
    assert st.weights[0] == 6.162037037037037


def test_noncompact_validation():
    with pytest.raises(ValueError):
        noncompact_stencil(2, 2, 3, 1)  # gamma = 1 is the compact case
    with pytest.raises(ValueError):
        noncompact_stencil(3, 2, 2, 0)  # gamma = 3/2 not an integer


def test_apply_exact_cube():
    st = compact_stencil(3, 4, 3)
    got = apply_stencil(st, lambda x: x**3, F(2, 7), F(1, 3))
    assert got == 6


def test_apply_staggered_exact_square():
    st = compact_stencil(2, 4, F(3, 2))
    assert apply_stencil(st, lambda x: x * x, F(5, 3), F(1, 2)) == 2


def test_apply_sequence_and_validation():
    st = compact_stencil(1, 1, 0)
    assert apply_stencil(st, [3, 1], 0, F(1, 2)) == 4
    with pytest.raises(ValueError):
        apply_stencil(st, [1, 2, 3], 0, 1)
    with pytest.raises(ValueError):
        apply_stencil(st, [1, 2], 0, 0)
    with pytest.raises(ValueError):
        apply_stencil(st, [1, 2], 0, -1)


@pytest.mark.parametrize("field", [RATIONAL, FLOAT64, bigdecimal(30)], ids=lambda f: f.name)
def test_apply_refuses_a_spacing_or_point_that_is_not_finite(field):
    st = compact_stencil(2, 2, 1, field)
    for h in (math.inf, math.nan, "inf"):
        with pytest.raises(ValueError, match="^spacing h must be a finite number"):
            apply_stencil(st, [1.0, 2.0, 3.0, 5.0], 0, h)
    for x in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="^point x must be a finite number"):
            apply_stencil(st, lambda t: t * t, x, 1)


@pytest.mark.parametrize("field", [RATIONAL, FLOAT64, bigdecimal(30)], ids=lambda f: f.name)
def test_apply_reads_every_sample_into_the_field(field):
    # float samples are converted (exactly in the rational field); an inf or a
    # NaN, in a sequence or from the callable, is refused by its index
    st = compact_stencil(2, 2, 1, field)
    samples = [1.0, 2.0, 3.5, 5.0]
    got = apply_stencil(st, samples, 0, 1)
    assert type(got) is type(field.one)
    assert got == apply_stencil(st, [field.of(v) for v in samples], 0, 1)
    assert got == field.of(F(1, 2))  # weights (1, -2, 1, 0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="^sample 2 must be a finite number"):
            apply_stencil(st, [1.0, 2.0, bad, 5.0], 0, 1)
        with pytest.raises(ValueError, match="^sample 0 must be a finite number"):
            apply_stencil(st, lambda t: bad, 0, 1)


def test_rational_stencil_applications_are_exact():
    # a callable and a sequence of samples, on one stencil; applying it
    # leaves the stencil equal to a fresh one
    st = compact_stencil(2, 8, 3)
    first = apply_stencil(st, lambda x: x**4, F(1, 5), F(1, 7))
    second = apply_stencil(st, [F(k, 3) for k in range(len(st.weights))], 0, F(1, 2))
    assert first == 12 * F(1, 5) ** 2
    assert second == sum(w * F(k, 3) for k, w in enumerate(st.weights)) * 4
    fresh = compact_stencil(2, 8, 3)
    assert st == fresh and hash(st) == hash(fresh) and repr(st) == repr(fresh)


def test_apply_float_error_magnitude():
    # e^x makes every derivative equal, so the h^p term dominates cleanly
    st = compact_stencil(1, 3, 0, FLOAT64)
    h = 0.1
    got = apply_stencil(st, math.exp, 0.0, h)
    err = got - 1.0
    predicted = float(st.leading_error) * h**3 * 1.0
    assert abs(err - predicted) < 0.2 * abs(predicted)


def test_polynomial_exactness_sweep():
    rng = random.Random(29)
    x0 = F(1, 3)
    h = F(1, 2)
    for d in range(1, 4):
        for p in range(1, 5):
            span = p + d - 1
            shifts = {0, span, F(span, 2), rng.randint(0, span)}
            for r in shifts:
                st = compact_stencil(d, p, r)
                for m in range(p + d):
                    got = apply_stencil(st, lambda x: x**m, x0, h)
                    if m < d:
                        assert got == 0, (d, p, r, m)
                    else:
                        coeff = math.factorial(m) // math.factorial(m - d)
                        assert got == coeff * x0 ** (m - d), (d, p, r, m)


def test_error_identity_on_first_failing_monomial():
    # applying to x^(p+d) at x = 0 leaves exactly a_p h^p (p+d)!
    rng = random.Random(37)
    for _ in range(12):
        d = rng.randint(1, 3)
        p = rng.randint(1, 4)
        r = rng.randint(0, p + d - 1)
        st = compact_stencil(d, p, r)
        m = p + d
        fact = math.factorial(m)
        at_1 = apply_stencil(st, lambda x: x**m, F(0), 1)
        at_half = apply_stencil(st, lambda x: x**m, F(0), F(1, 2))
        assert at_1 == st.leading_error * fact
        assert at_half == st.leading_error * F(1, 2**p) * fact
        if st.leading_error != 0:
            assert at_1 / at_half == 2**p


def test_left_right_mirror():
    for d in range(1, 4):
        for p in range(1, 6):
            left = compact_stencil(d, p, 0)
            right = compact_stencil(d, p, p + d - 1)
            flipped = tuple((-1) ** d * w for w in reversed(left.weights))
            assert right.weights == flipped


def test_empirical_orders_float64():
    derivs = {1: math.cos, 2: lambda t: -math.sin(t), 3: lambda t: -math.cos(t)}
    x = 1.0
    for name, d, p, r, _, _ in COMPACT_ROWS:
        st = compact_stencil(d, p, float(r), FLOAT64)
        errs = [
            abs(apply_stencil(st, math.sin, x, h) - derivs[d](x))
            for h in (1 / 16, 1 / 32)
        ]
        order = math.log2(errs[0] / errs[1])
        assert abs(order - p) < 0.25, (name, order)


def test_empirical_orders_bigdecimal():
    big = bigdecimal(40)
    with big.context():
        x = big.of(1)
        derivs = {1: decimal_cos(x), 2: -decimal_sin(x), 3: -decimal_cos(x)}
        for name, d, p, r, _, _ in COMPACT_ROWS:
            st = compact_stencil(d, p, r, big)
            errs = [
                abs(apply_stencil(st, decimal_sin, x, big.of(F(1, 10**k))) - derivs[d])
                for k in (3, 4)
            ]
            order = math.log10(float(errs[0] / errs[1]))
            assert abs(order - p) < 0.01, (name, order)


def test_render_human_rows():
    st = compact_stencil(1, 3, 0)
    assert render_stencil(st) == "(11/6), -3, 3/2, -1/3 | error -1/4"
    st = compact_stencil(3, 4, 3)
    assert render_stencil(st) == "-1/8, 1, -13/8, (0), 13/8, -1, 1/8 | error -7/120"
    st = compact_stencil(2, 4, F(3, 2))
    human = render_stencil(st)
    assert "| eval offset 1/2" in human
    assert "(" not in human
    assert human.endswith("| error 341/5760")


def test_render_json_schema():
    st = compact_stencil(3, 4, 3)
    record = json.loads(render_stencil(st, format="json"))
    assert sorted(record) == [
        "alpha", "d", "error_derivative_order", "eval_fraction",
        "lambda", "leading_error", "offsets", "p", "r", "weights",
    ]
    assert record["alpha"] == 3
    assert record["d"] == 3
    assert record["p"] == 4
    assert record["r"] == "3"
    assert record["lambda"] == "3"
    assert record["weights"] == ["-1/8", "1", "-13/8", "0", "13/8", "-1", "1/8"]
    assert record["offsets"][0] == "3"
    assert record["leading_error"] == "-7/120"
    assert record["error_derivative_order"] == 7
    # float mode uses JSON numbers instead of strings
    record = json.loads(render_stencil(compact_stencil(1, 1, 0, FLOAT64), format="json"))
    assert record["weights"] == [1.0, -1.0]


def test_render_csv():
    st = compact_stencil(1, 1, 0)
    assert render_stencil(st, format="csv") == "index,offset,weight\n0,0,1\n1,-1,-1"


def test_render_unknown_format():
    with pytest.raises(ValueError):
        render_stencil(compact_stencil(1, 1, 0), format="latex")


def test_stencil_weights_follow_error_coefficients():
    # leading_error always equals the a_p of the underlying parameters
    for d, p, r in ((1, 4, 2), (2, 3, 0), (3, 2, 4)):
        st = compact_stencil(d, p, r)
        cv = beta_coefficients(derive_params(d, d, p, r))
        assert st.leading_error == error_coefficients(cv).leading
