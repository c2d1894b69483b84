"""Boundary-value assembly and dense solves in all three arithmetics."""

import math
import random
import warnings
from fractions import Fraction as F

import numpy as np
import pytest

from diffgen import (
    FLOAT64,
    RATIONAL,
    BvpProblem,
    ExactnessError,
    SingularMatrixError,
    assemble_central,
    assemble_fractional,
    assemble_unified,
    bigdecimal,
    convergence_study,
    power_law_fractional_bvp,
    sine_bvp,
    solve_bvp,
    solve_dense,
    study_csv,
    study_table,
    unified_coefficient_rows,
)


def cubic_problem():
    return BvpProblem(
        a=F(0), b=F(1), ua=F(0), ub=F(0),
        rhs=lambda x: 6 * x,
        alpha=2,
        exact=lambda x: x**3 - x,
        field=RATIONAL,
    )


def test_sine_problem_factory():
    prob = sine_bvp()
    assert prob.field is FLOAT64
    assert prob.exact(0.0) == 0.0
    assert prob.rhs(0.5) == -math.sin(0.5)
    assert prob.ua == math.sin(-1)
    with pytest.raises(ExactnessError):
        sine_bvp(RATIONAL)


def test_power_law_factory():
    prob = power_law_fractional_bvp(1.6)
    assert prob.exact(1.0) == pytest.approx(1.0)
    assert prob.exact(0.5) == pytest.approx(0.5 ** 4.6)
    assert prob.rhs(1.0) == pytest.approx(math.gamma(5.6) / 6)
    for bad in (1, 2, 2.5, 0.3):
        with pytest.raises(ValueError):
            power_law_fractional_bvp(bad)


def test_problem_domain_validation():
    with pytest.raises(ValueError):
        BvpProblem(a=1, b=1, ua=0, ub=0, rhs=lambda x: x, alpha=2)
    with pytest.raises(ValueError):
        BvpProblem(a=2, b=1, ua=0, ub=0, rhs=lambda x: x, alpha=2)


def test_assemble_central_smallest():
    matrix, rhs = assemble_central(cubic_problem(), 2)
    assert matrix == [[-8]]
    assert rhs == [3]  # 6*(1/2) - 4*0 - 4*0


def test_assemble_central_boundary_fold():
    prob = BvpProblem(a=F(0), b=F(1), ua=F(2), ub=F(5),
                      rhs=lambda x: F(0), alpha=2, field=RATIONAL)
    matrix, rhs = assemble_central(prob, 2)
    assert matrix == [[-8]]
    assert rhs == [-4 * 2 - 4 * 5]


def test_assemble_central_tridiagonal():
    matrix, _ = assemble_central(cubic_problem(), 4)
    s = F(16)
    assert matrix == [
        [-2 * s, s, 0],
        [s, -2 * s, s],
        [0, s, -2 * s],
    ]


def test_assemble_central_validation():
    with pytest.raises(ValueError):
        assemble_central(cubic_problem(), 1)
    frac = power_law_fractional_bvp(1.5)
    with pytest.raises(ValueError):
        assemble_central(frac, 4)


def test_unified_rows_smallest():
    assert unified_coefficient_rows(2) == [(1, -2, 1)]
    with pytest.raises(ValueError):
        unified_coefficient_rows(1)


def test_unified_rows_solve_moment_system():
    n = 6
    rows = unified_coefficient_rows(n)
    assert len(rows) == n - 1
    for i, row in enumerate(rows, start=1):
        assert len(row) == n + 1
        for k in range(n + 1):
            moment = sum((i - j) ** k * b for j, b in enumerate(row))
            assert moment == (2 if k == 2 else 0), (i, k)


def test_assemble_unified_smallest_matches_central():
    prob = cubic_problem()
    assert assemble_unified(prob, 2) == assemble_central(prob, 2)


def test_unified_rows_mirror():
    rows = unified_coefficient_rows(7)
    for i, row in enumerate(rows, start=1):
        assert tuple(reversed(rows[-i])) == row


def test_polynomial_bvp_solved_exactly():
    prob = cubic_problem()
    for scheme in ("central", "unified"):
        for n in (2, 3, 5, 8):
            rep = solve_bvp(prob, scheme, n)
            assert rep.max_error == 0, (scheme, n)
            assert rep.solution[0] == 0 and rep.solution[-1] == 0
    assert solve_bvp(prob, "central", 4).approx_order == 2
    assert solve_bvp(prob, "unified", 6).approx_order == 5


def test_solve_dense_float():
    rng = random.Random(19)
    eye = np.eye(3)
    b = np.array([1.0, 2.0, 3.0])
    assert np.allclose(solve_dense(eye, b), b)
    a = np.array([[rng.uniform(-1, 1) for _ in range(10)] for _ in range(10)])
    a += 10 * np.eye(10)
    b = np.array([rng.uniform(-1, 1) for _ in range(10)])
    x = solve_dense(a, b)
    assert float(np.abs(a @ x - b).max()) <= 1e-10 * float(np.abs(b).max())


def test_solve_dense_exact():
    assert solve_dense([[F(2)]], [F(4)]) == [2]
    hilbert = [[F(1, i + j + 1) for j in range(4)] for i in range(4)]
    b = [sum(row) for row in hilbert]
    assert solve_dense(hilbert, b) == [1, 1, 1, 1]


def test_solve_dense_singular():
    with pytest.raises(SingularMatrixError):
        solve_dense([[F(1), F(2)], [F(2), F(4)]], [F(1), F(2)])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # scipy flags the zero pivot first
        with pytest.raises(SingularMatrixError):
            solve_dense(np.array([[1.0, 2.0], [2.0, 4.0]]), np.array([1.0, 2.0]))


def test_singular_float_unified_names_condition_and_fix():
    with pytest.raises(SingularMatrixError, match=r"condition estimate .*--mode big --digits"):
        solve_bvp(sine_bvp(), "unified", 40)


def test_unified_sine_errors_pinned():
    prob = sine_bvp()
    reports = convergence_study(prob, "unified", [4, 8])
    assert reports[0].max_error == pytest.approx(0.0012381461252706782, rel=1e-9)
    assert reports[1].max_error == pytest.approx(1.851251920648167e-07, rel=1e-9)
    assert reports[1].empirical_order == pytest.approx(12.7, abs=0.2)
    assert reports[1].approx_order == 7


def test_central_sine_second_order():
    prob = sine_bvp()
    reports = convergence_study(prob, "central", [8, 16, 32])
    orders = [rep.empirical_order for rep in reports[1:]]
    for order in orders:
        assert order == pytest.approx(2.0, abs=0.05)


def test_unified_sine_bigdecimal():
    big = bigdecimal(30)
    rep = solve_bvp(sine_bvp(big), "unified", 4)
    assert float(rep.max_error) == pytest.approx(0.0012381461252706782, rel=1e-10)


def test_fractional_pinned_errors():
    prob = power_law_fractional_bvp(1.6)
    reports = convergence_study(prob, "fractional", [64, 128])
    assert reports[0].max_error == pytest.approx(2.83087e-04, rel=1e-3)
    assert reports[1].max_error == pytest.approx(7.08555e-05, rel=1e-3)
    assert reports[1].empirical_order == pytest.approx(2.0, abs=0.05)
    rep = solve_bvp(power_law_fractional_bvp(1.34), "fractional", 128)
    assert rep.max_error == pytest.approx(7.669985706852678e-05, rel=1e-6)


def test_fractional_divergence_warning():
    prob = power_law_fractional_bvp(1.33)
    with pytest.warns(RuntimeWarning, match="diverges"):
        assemble_fractional(prob, 8)
    prob = power_law_fractional_bvp(1.6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assemble_fractional(prob, 8)


def test_fractional_experimental_warning():
    prob = power_law_fractional_bvp(1.6)
    with pytest.warns(RuntimeWarning, match="experimental"):
        assemble_fractional(prob, 8, p=2, d=2, r=0)


def test_fractional_validation():
    prob = power_law_fractional_bvp(1.6)
    with pytest.raises(ValueError):
        assemble_fractional(prob, 8, r=-1)
    with pytest.raises(ValueError):
        assemble_fractional(prob, 1)
    sine = sine_bvp()
    with pytest.raises(ValueError):
        assemble_fractional(sine, 8)


def test_solve_bvp_unknown_scheme():
    with pytest.raises(ValueError):
        solve_bvp(sine_bvp(), "spectral", 8)


def test_convergence_study_needs_exact():
    prob = BvpProblem(a=0.0, b=1.0, ua=0.0, ub=0.0,
                      rhs=lambda x: x, alpha=2, field=FLOAT64)
    with pytest.raises(ValueError):
        convergence_study(prob, "central", [4, 8])
    # solve_bvp itself is fine without an exact solution
    rep = solve_bvp(prob, "central", 4)
    assert rep.max_error is None


def test_study_csv_format():
    reports = convergence_study(sine_bvp(), "central", [4, 8])
    lines = study_csv(reports).splitlines()
    assert lines[0] == "N,h,max_error,order"
    assert lines[1].startswith("4,0.5,")
    assert lines[1].endswith(",--")
    n, h, err, order = lines[2].split(",")
    assert (n, h) == ("8", "0.25")
    assert float(err) > 0
    assert float(order) == pytest.approx(2.0, abs=0.3)


def test_study_table_format():
    reports = convergence_study(sine_bvp(), "central", [4, 8])
    lines = study_table(reports).splitlines()
    assert lines[0].split() == ["N", "h", "error", "order", "p"]
    assert lines[1].split()[0] == "4"
    assert lines[1].split()[-1] == "2"
    assert lines[1].split()[-2] == "--"
    assert lines[2].split()[-2] != "--"
