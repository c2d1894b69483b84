"""Independent cross-checks: direct symmetric sums, Cramer solves, the
determinant identity behind the closed form, and moment verification."""

import decimal
import math
import random
from fractions import Fraction as F

import pytest

from diffgen import (
    FLOAT64,
    BudgetError,
    beta_coefficients,
    consistency_moments,
    denominators,
    derive_params,
    error_coefficients,
    numerators,
    numerators_direct,
    symbol_series,
    vandermonde_solve,
)
from diffgen.oracle import det_exact, esp_direct, vandermonde_matrix

from reference_tables import NONCOMPACT_BASE


def test_esp_direct_values():
    assert esp_direct((1, 2, 3), 2) == 11
    assert esp_direct((1, 2, 3), 0) == 1
    assert esp_direct((1, 2, 3), 3) == 6
    assert esp_direct((7,), 1) == 7
    # nodes of the (2, 2, 3, 0) row with j = 4 removed
    assert esp_direct((0, -1, -2, -3), 2) == 11


def test_esp_direct_validation():
    with pytest.raises(ValueError):
        esp_direct((1, 2), 3)
    with pytest.raises(ValueError):
        esp_direct((1, 2), -1)
    for k in (True, False):
        with pytest.raises(ValueError, match=rf"^k must be an integer in 0\.\.3, got {k}$"):
            esp_direct([1, 2, 3], k)


def test_esp_direct_generating_function():
    # prod (t + x_i) expands with S(X, k) coefficients
    rng = random.Random(9)
    for _ in range(10):
        xs = [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(5)]
        t = F(rng.randint(1, 9), rng.randint(1, 3))
        lhs = math.prod(t + x for x in xs)
        rhs = sum(esp_direct(tuple(xs), k) * t ** (5 - k) for k in range(6))
        assert lhs == rhs


def test_det_exact_small():
    assert det_exact([[F(2)]]) == 2
    assert det_exact([[1, 2], [3, 4]]) == -2
    assert det_exact([[2, 0, 1], [1, 1, 0], [0, 3, 1]]) == 5
    assert det_exact([[1, 2], [2, 4]]) == 0
    with pytest.raises(ValueError):
        det_exact([[1, 2, 3], [4, 5, 6]])


def test_vandermonde_solve_examples():
    assert vandermonde_solve(derive_params(1, 1, 1, 0)) == (1, -1)
    assert vandermonde_solve(derive_params(3, 3, 2, 0)) == (
        F(5, 2), -9, 12, -7, F(3, 2))
    assert vandermonde_solve(derive_params(2, 2, 4, 1)) == (
        F(5, 6), F(-5, 4), F(-1, 3), F(7, 6), F(-1, 2), F(1, 12))


def test_vandermonde_matrix_shape():
    params = derive_params(2, 2, 3, F(1, 2))
    m = vandermonde_matrix(params)
    assert len(m) == params.n_coeffs
    assert all(len(row) == params.n_coeffs for row in m)
    assert m[0] == [1] * params.n_coeffs


def test_closed_form_matches_cramer():
    rng = random.Random(17)
    for _ in range(25):
        d = rng.randint(1, 4)
        p = rng.randint(1, 8 - d)
        lam = F(rng.randint(-6, 12), rng.randint(1, 6))
        params = derive_params(d, d, p, lam)
        assert beta_coefficients(params).beta == vandermonde_solve(params)


def test_numerators_direct_values():
    nums, _ = numerators_direct(derive_params(1, 1, 2, 0))
    assert nums == (-3, -2, -1)
    dens = denominators(1, 2)
    assert tuple(n / dd for n, dd in zip(nums, dens)) == (F(3, 2), -2, F(1, 2))


def test_numerators_direct_matches_efficient():
    rng = random.Random(31)
    for _ in range(15):
        d = rng.randint(1, 5)
        p = rng.randint(1, 12 - d)
        lam = F(rng.randint(-4, 10), rng.randint(1, 5))
        params = derive_params(d, d, p, lam)
        direct, _ = numerators_direct(params)
        assert direct == numerators(params)


def test_numerators_direct_op_counts():
    # M = C(N-1, p-1) terms, each N multiplies (p-1 inside the product,
    # counted per ESP monomial) and one add per term per position
    _, ops = numerators_direct(derive_params(1, 1, 2, 0))
    assert (ops.additions, ops.multiplications) == (6, 6)
    _, ops = numerators_direct(derive_params(2, 2, 3, 0))
    assert (ops.additions, ops.multiplications) == (30, 60)


def test_numerators_direct_budget():
    with pytest.raises(BudgetError):
        numerators_direct(derive_params(14, 14, 14, 1))
    with pytest.raises(BudgetError):
        numerators_direct(derive_params(3, 3, 4, 1), budget=10)
    # raising the budget clears it again
    nums, _ = numerators_direct(derive_params(3, 3, 4, 1), budget=10**6)
    assert nums == numerators(derive_params(3, 3, 4, 1))


def test_consistency_moments_values():
    cv = beta_coefficients(derive_params(1, 1, 1, 0))
    assert consistency_moments(cv, 1) == (0, 1)
    # seven-point third-derivative row: b_k = delta_{3,k}
    cv = beta_coefficients(derive_params(3, 3, 4, 3))
    assert consistency_moments(cv, 6) == (0, 0, 0, 1, 0, 0, 0)
    # beyond the enforced window the moments feed the error series
    cv = beta_coefficients(derive_params(2, 1, 3, 1))
    moments = consistency_moments(cv, 4)
    assert moments == (0, 1, 0, 0, F(1, 24))
    errs = error_coefficients(cv)
    assert errs.leading == F(1, 12)
    assert errs.leading == cv.params.gamma * moments[4]


def test_consistency_moments_validation():
    cv = beta_coefficients(derive_params(2, 2, 2, 1))
    with pytest.raises(ValueError):
        consistency_moments(cv, 2)  # below N - 1
    # a bool is no count, even where True would reach N - 1 = 1
    cv = beta_coefficients(derive_params(1, 1, 1, 0))
    assert len(consistency_moments(cv, 1)) == 2
    with pytest.raises(ValueError):
        consistency_moments(cv, True)


def test_determinant_reduction_identity():
    # dropping the power-k row from the extended Vandermonde block leaves
    # |V| times the complementary symmetric function
    rng = random.Random(41)
    for _ in range(12):
        q = rng.randint(1, 4)
        xs = []
        while len(xs) < q + 1:
            cand = F(rng.randint(-9, 9), rng.randint(1, 4))
            if cand not in xs:
                xs.append(cand)
        v = det_exact([[x ** i for x in xs] for i in range(q + 1)])
        for k in range(q + 2):
            rows = [[x ** i for x in xs] for i in range(q + 2) if i != k]
            assert det_exact(rows) == v * esp_direct(tuple(xs), q + 1 - k), (xs, k)


def _as_decimal(fr, digits=40):
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        return decimal.Decimal(fr.numerator) / decimal.Decimal(fr.denominator)


def test_symbol_series_trivial_and_error():
    # W(z) = P(z)^{gamma} expanded about z = 1 reproduces (1, 0, ..., a_p)
    got = symbol_series(beta_coefficients(derive_params(2, 1, 3, 1)), count=3)
    assert abs(got[0] - 1) < decimal.Decimal("1e-30")
    assert abs(got[1]) < decimal.Decimal("1e-30")
    assert abs(got[2]) < decimal.Decimal("1e-30")
    assert abs(got[3] - _as_decimal(F(1, 12))) < decimal.Decimal("1e-30")


def test_symbol_series_fractional():
    cv = beta_coefficients(derive_params(F(8, 5), 2, 2, 1))
    exact = error_coefficients(cv).leading
    got = symbol_series(cv)
    assert abs(got[0] - 1) < decimal.Decimal("1e-30")
    assert abs(got[1]) < decimal.Decimal("1e-30")
    assert abs(got[2] - _as_decimal(exact)) < decimal.Decimal("1e-25")


def test_symbol_series_default_count_is_p():
    cv = beta_coefficients(derive_params(2, 1, 3, 1))
    assert len(symbol_series(cv)) == 4
    assert tuple(float(b) for b in cv.beta) == pytest.approx(
        tuple(NONCOMPACT_BASE))
    assert len(symbol_series(cv, count=1)) == 2
    assert len(symbol_series(cv, count=0)) == 1
    for count in (-2, True, 1.0):
        with pytest.raises(ValueError, match="count must be a non-negative integer"):
            symbol_series(cv, count)


def test_float_field_direct_path():
    params = derive_params(2, 2, 3, 1, FLOAT64)
    direct, _ = numerators_direct(params)
    for a, b in zip(direct, numerators(params)):
        assert abs(a - b) < 1e-10
