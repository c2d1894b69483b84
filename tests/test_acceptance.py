"""Acceptance gate: one test per shipped claim, each printing a single
pass/fail line with its runtime (visible under pytest -s or on failure).

Numbered claims:
  1 exact coefficient tables           5 double-precision sine study
  2 non-compact squared generator      6 50-digit sine study at N=16
  3 closed form vs Cramer oracle       7 fractional power-law study
  4 operation-count ledger             8 property sweeps
                                       9 cold 50-digit unified solve at N=128
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

from diffgen import (
    FLOAT64,
    apply_stencil,
    beta_coefficients,
    bigdecimal,
    compact_stencil,
    consistency_moments,
    convergence_diagnostic,
    derive_params,
    error_coefficients,
    iter_convergence_study,
    miller_expand,
    noncompact_stencil,
    numerators,
    numerators_direct,
    poly_power_int,
    power_law_fractional_bvp,
    sine_bvp,
    solve_bvp,
    vandermonde_solve,
)
import diffgen.solvers as solvers
from diffgen.oracle import OpCount, det_exact, esp_direct

from reference_tables import (
    BETA_POLY,
    COMPACT_ROWS,
    LAMBDA_SAMPLES,
    NONCOMPACT_SQUARED,
    ORDER_P_AT_ZERO,
    beta_row,
)


@contextmanager
def criterion(num: int, desc: str, budget: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"criterion {num} ({desc}): FAIL ({elapsed:.2f} s)")
        raise
    elapsed = time.perf_counter() - start
    if budget is not None and elapsed >= budget:
        print(f"criterion {num} ({desc}): FAIL ({elapsed:.2f} s over {budget:g} s budget)")
        raise AssertionError(f"runtime {elapsed:.2f} s exceeds the {budget:g} s budget")
    print(f"criterion {num} ({desc}): PASS ({elapsed:.2f} s)")


def test_criterion_1_exact_tables():
    with criterion(1, "exact coefficient tables", budget=1.0):
        for name, d, p, r, weights, err in COMPACT_ROWS:
            st = compact_stencil(d, p, r)
            assert st.weights == weights, name
            assert st.leading_error == err, name
        # order-p polynomials at shift 0, including the corrected
        # p=2 trailing coefficient 1/2
        for p, want in ORDER_P_AT_ZERO.items():
            assert beta_coefficients(derive_params(1, 1, p, 0)).beta == want
        assert ORDER_P_AT_ZERO[2] == (F(3, 2), -2, F(1, 2))
        for d, by_p in BETA_POLY.items():
            for p in by_p:
                for lam in LAMBDA_SAMPLES:
                    got = beta_coefficients(derive_params(d, d, p, lam)).beta
                    assert got == beta_row(d, p, lam), (d, p, lam)


def test_criterion_2_noncompact_expansion():
    with criterion(2, "non-compact squared generator"):
        cv = beta_coefficients(derive_params(2, 1, 3, 1))
        assert cv.beta == (F(23, 24), F(-7, 8), F(-1, 8), F(1, 24))
        by_miller = miller_expand(cv.beta, 2, 7).weights
        by_convolution = poly_power_int(cv.beta, 2)
        assert by_miller == NONCOMPACT_SQUARED
        assert by_convolution == NONCOMPACT_SQUARED
        assert NONCOMPACT_SQUARED == (
            F(529, 576), F(-161, 96), F(101, 192), F(43, 144),
            F(-11, 192), F(-1, 96), F(1, 576),
        )
        st = noncompact_stencil(2, 1, 3, 1)
        assert st.weights == NONCOMPACT_SQUARED
        assert st.leading_error == F(1, 12)


def test_criterion_3_oracle_equivalence():
    with criterion(3, "closed form vs Cramer oracle", budget=10.0):
        lambdas = (F(0), F(1, 3), F(1, 2), F(1), F(3, 2), F(2), F(5, 2))
        for d in range(1, 5):
            for p in range(1, 7):
                for lam in lambdas:
                    params = derive_params(d, d, p, lam)
                    fast = beta_coefficients(params).beta
                    slow = vandermonde_solve(params)
                    assert fast == slow, (d, p, lam)
        # determinant reduction behind the closed form, sets of size <= 6
        rng = random.Random(101)
        for _ in range(10):
            q = rng.randint(1, 5)
            xs = []
            while len(xs) < q + 1:
                cand = F(rng.randint(-9, 9), rng.randint(1, 4))
                if cand not in xs:
                    xs.append(cand)
            v = det_exact([[x ** i for x in xs] for i in range(q + 1)])
            for k in range(q + 2):
                rows = [[x ** i for x in xs] for i in range(q + 2) if i != k]
                assert det_exact(rows) == v * esp_direct(tuple(xs), q + 1 - k)


def test_criterion_4_operation_counts():
    with criterion(4, "operation-count ledger"):
        # counts depend only on the loop shape, so the float field keeps
        # the direct sum affordable
        _, ops = numerators_direct(derive_params(10, 10, 10, 1, FLOAT64))
        assert ops.additions == 1847560
        assert ops.multiplications == 16628040
        tally = OpCount()
        numerators(derive_params(10, 10, 10, 1), tally)
        assert tally.additions <= 1000


def test_criterion_5_sine_double_precision():
    with criterion(5, "double-precision sine study", budget=5.0):
        prob = sine_bvp()
        reports = list(iter_convergence_study(prob, "unified", [4, 8]))
        assert abs(reports[0].max_error / 0.00123815 - 1) < 0.01
        assert abs(reports[1].max_error / 1.85125e-07 - 1) < 0.01
        central = list(iter_convergence_study(prob, "central", [4, 8, 16, 32, 64, 128]))
        for rep in central[1:]:
            assert abs(rep.empirical_order - 2.0) < 0.05, rep.n_intervals


def test_criterion_6_sine_high_precision():
    with criterion(6, "50-digit sine study at N=16", budget=30.0):
        rep = solve_bvp(sine_bvp(bigdecimal(50)), "unified", 16)
        err = float(rep.max_error)
        assert err < 1e-16
        assert abs(math.log10(err / 2.02095e-17)) < 1.0


def test_criterion_7_fractional_study():
    with criterion(7, "fractional power-law study", budget=60.0):
        reports = list(iter_convergence_study(
            power_law_fractional_bvp(1.6), "fractional", [32, 64, 128, 256]))
        pinned = {64: 2.8309e-04, 128: 7.0856e-05, 256: 1.7725e-05}
        for rep in reports[1:]:
            assert abs(rep.max_error / pinned[rep.n_intervals] - 1) < 0.05
            assert abs(rep.empirical_order - 2.0) < 0.05
        rep = solve_bvp(power_law_fractional_bvp(1.34), "fractional", 128)
        assert abs(rep.max_error / 7.6700e-05 - 1) < 0.05
        bad = convergence_diagnostic(
            beta_coefficients(derive_params(F(133, 100), 2, 2, 1)))
        assert not bad.converges_on_unit_disk
        assert bad.edge_ratio == F(67, 66)
        boundary = convergence_diagnostic(
            beta_coefficients(derive_params(F(4, 3), 2, 2, 1)))
        assert boundary.edge_ratio == 1
        assert not boundary.converges_on_unit_disk
        good = convergence_diagnostic(
            beta_coefficients(derive_params(F(8, 5), 2, 2, 1)))
        assert good.converges_on_unit_disk


def test_criterion_8_property_sweeps():
    with criterion(8, "property sweeps", budget=10.0):
        rng = random.Random(303)
        # exactness of every compact stencil on its guaranteed degrees
        x0, h = F(1, 3), F(1, 2)
        for d in range(1, 4):
            for p in range(1, 5):
                span = p + d - 1
                shifts = [F(r) for r in range(span + 1)] + [F(2 * span - 1, 2)]
                for r in shifts:
                    st = compact_stencil(d, p, r)
                    for m in range(p + d):
                        got = apply_stencil(st, lambda x: x**m, x0, h)
                        want = 0
                        if m >= d:
                            want = (math.factorial(m) // math.factorial(m - d)) * x0 ** (m - d)
                        assert got == want, (d, p, r, m)
        # consistency moments for 200 random rational parameter sets
        for _ in range(200):
            d = rng.randint(1, 4)
            p = rng.randint(1, 6)
            lam = F(rng.randint(-12, 12), rng.randint(1, 8))
            params = derive_params(d, d, p, lam)
            cv = beta_coefficients(params)
            moments = consistency_moments(cv, params.n_coeffs - 1)
            for k, b in enumerate(moments):
                assert b == (1 if k == d else 0), (d, p, lam, k)
        # Miller recurrence vs exact convolution for integer exponents
        for _ in range(20):
            n = rng.randint(1, 5)
            base = [F(rng.randint(1, 6), rng.randint(1, 3))]
            base += [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n - 1)]
            gamma = rng.randint(1, 4)
            full = poly_power_int(base, gamma)
            assert miller_expand(base, gamma, len(full)).weights == full
        # left/right mirror identity
        for d in range(1, 4):
            for p in range(1, 6):
                left = compact_stencil(d, p, 0)
                right = compact_stencil(d, p, p + d - 1)
                assert right.weights == tuple(
                    (-1) ** d * w for w in reversed(left.weights))


def test_criterion_9_cold_unified_solve():
    # the first solve at an N computes the exact data bound of that N
    solvers._data_bound.cache_clear()
    with criterion(9, "cold 50-digit unified solve at N=128", budget=1.0):
        rep = solve_bvp(sine_bvp(bigdecimal(50)), "unified", 128)
        # dense decimal elimination of the scheme returned a max error of 1.3e-4
        assert rep.max_error < 1e-19
