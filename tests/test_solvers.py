"""Boundary-value assembly and dense solves in all three arithmetics."""

import dataclasses
import functools
import hashlib
import itertools
import math
import random
import re
import sys
import warnings
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction as F

import mpmath
import numpy as np
import pytest
import scipy.linalg

from diffgen import (
    FLOAT64,
    RATIONAL,
    BvpProblem,
    ExactnessError,
    Grid,
    SingularMatrixError,
    assemble_central,
    assemble_fractional,
    assemble_unified,
    bigdecimal,
    iter_convergence_study,
    power_law_fractional_bvp,
    sine_bvp,
    solve_bvp,
    solve_dense,
    study_csv,
    study_table,
    unified_coefficient_rows,
)
import diffgen.solvers as solvers
from diffgen.explicit_form import beta_coefficients, derive_params
from diffgen.oracle import symbol_series
from diffgen.series import miller_expand
from diffgen.solvers import _grid


def cubic_problem():
    return BvpProblem(
        a=F(0), b=F(1), ua=F(0), ub=F(0),
        rhs=lambda g: 6 * g.x[1:-1],
        alpha=2,
        exact=lambda g: g.x**3 - g.x,
        field=RATIONAL,
    )


def test_sine_problem_factory():
    prob = sine_bvp()
    assert prob.field is FLOAT64
    grid = _grid(prob, 4, FLOAT64)  # -1, -0.5, 0, 0.5, 1
    assert prob.exact(grid)[2] == 0.0
    assert prob.rhs(grid)[2] == -math.sin(0.5)
    assert prob.ua == math.sin(-1)
    with pytest.raises(ExactnessError):
        sine_bvp(RATIONAL)


def test_power_law_factory():
    prob = power_law_fractional_bvp(1.6)
    exact = prob.exact(_grid(prob, 2, FLOAT64))  # 0, 0.5, 1
    assert exact[2] == pytest.approx(1.0)
    assert exact[1] == pytest.approx(0.5 ** 4.6)
    wide = _grid(dataclasses.replace(prob, b=2.0), 4, FLOAT64)  # 1.0 is interior
    assert prob.rhs(wide)[1] == pytest.approx(math.gamma(5.6) / 6)
    for bad in (1, 2, 2.5, 0.3):
        with pytest.raises(ValueError):
            power_law_fractional_bvp(bad)


def test_problem_domain_validation():
    with pytest.raises(ValueError):
        BvpProblem(a=1, b=1, ua=0, ub=0, rhs=lambda g: g.x[1:-1], alpha=2)
    with pytest.raises(ValueError):
        BvpProblem(a=2, b=1, ua=0, ub=0, rhs=lambda g: g.x[1:-1], alpha=2)


def test_assemble_central_smallest():
    matrix, rhs = assemble_central(cubic_problem(), 2)
    assert matrix == [[-8]]
    assert rhs == [3]  # 6*(1/2) - 4*0 - 4*0


def test_assemble_central_boundary_fold():
    prob = BvpProblem(a=F(0), b=F(1), ua=F(2), ub=F(5),
                      rhs=lambda g: [F(0)] * (g.n - 1), alpha=2, field=RATIONAL)
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
    assert solve_dense(np.array([[2.0]]), [4.0]).tolist() == [2.0]
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


@pytest.mark.parametrize("field", [None, RATIONAL, bigdecimal(50)],
                         ids=lambda f: getattr(f, "name", "none"))
def test_solve_dense_object_array_is_solved_exactly(monkeypatch, field):
    # the rows as an object array take the elimination that lists take, not LAPACK
    def refuse(*args, **kwargs):
        raise AssertionError("an object array was factored in double precision")

    monkeypatch.setattr(scipy.linalg, "lu_factor", refuse)
    of = F if field is None else field.of
    rows = [[of(1), of(F(1, 3)), of(2)], [of(F(1, 3)), of(1), of(F(-1, 7))],
            [of(5), of(F(2, 9)), of(1)]]
    rhs = [of(1), of(0), of(F(-3, 11))]
    want = solve_dense(rows, rhs, field)
    for matrix, b in ((np.array(rows, dtype=object), rhs),
                      (np.array(rows, dtype=object), np.array(rhs, dtype=object))):
        got = solve_dense(matrix, b, field)
        assert [type(x) for x in got] == [type(x) for x in want]
        assert repr(got) == repr(want)
    assert type(want[0]) is (F if field in (None, RATIONAL) else Decimal)


def test_solve_dense_singular():
    with pytest.raises(SingularMatrixError):
        solve_dense([[F(1), F(2)], [F(2), F(4)]], [F(1), F(2)])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # scipy flags the zero pivot first
        with pytest.raises(SingularMatrixError):
            solve_dense(np.array([[1.0, 2.0], [2.0, 4.0]]), np.array([1.0, 2.0]))


def test_singular_float_unified_names_condition_and_fix():
    # the data bound is 8.19e13 at N = 52 and 1.28e15 at N = 56, against 1e14
    assert solve_bvp(sine_bvp(), "unified", 52).max_error < 1e-5
    with pytest.raises(SingularMatrixError, match=r"condition estimate .*--mode big --digits"):
        solve_bvp(sine_bvp(), "unified", 56)


def test_unified_sine_errors_pinned():
    prob = sine_bvp()
    reports = list(iter_convergence_study(prob, "unified", [4, 8]))
    assert reports[0].max_error == pytest.approx(0.0012381461252706782, rel=1e-9)
    assert reports[1].max_error == pytest.approx(1.851251920648167e-07, rel=1e-9)
    assert reports[1].empirical_order == pytest.approx(12.7, abs=0.2)
    assert reports[1].approx_order == 7


def test_central_sine_second_order():
    prob = sine_bvp()
    reports = list(iter_convergence_study(prob, "central", [8, 16, 32]))
    orders = [rep.empirical_order for rep in reports[1:]]
    for order in orders:
        assert order == pytest.approx(2.0, abs=0.05)


def test_unified_sine_bigdecimal():
    big = bigdecimal(30)
    rep = solve_bvp(sine_bvp(big), "unified", 4)
    assert float(rep.max_error) == pytest.approx(0.0012381461252706782, rel=1e-10)


def test_fractional_pinned_errors():
    prob = power_law_fractional_bvp(1.6)
    reports = list(iter_convergence_study(prob, "fractional", [64, 128]))
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


def test_bool_shift_is_refused():
    # True is an int, but a shift of True is a mistake, not r = 1
    prob = power_law_fractional_bvp(1.6)
    with pytest.raises(ValueError, match="shift r must be a non-negative integer.*True"):
        solve_bvp(prob, "fractional", 8, r=True)
    with pytest.raises(ValueError, match="shift r must be a non-negative integer.*False"):
        assemble_fractional(prob, 8, r=False)


@pytest.mark.parametrize("field", [FLOAT64, bigdecimal(30)], ids=lambda f: f.name)
@pytest.mark.parametrize("r", [2, 3, 4])
def test_shifts_from_two_are_refused_before_any_work(monkeypatch, field, r):
    # no fractional scheme with r >= 2 converges for 1 < alpha < 2: the
    # refusal comes before any expansion, warning or problem data
    def refuse(*args, **kwargs):
        raise AssertionError("a refused shift reached the expansion or the problem data")

    _fresh_generator_memo(monkeypatch)
    monkeypatch.setattr(solvers, "_expand", refuse)
    problem = dataclasses.replace(power_law_fractional_bvp(F(8, 5), field), rhs=refuse,
                                  exact=refuse)
    message = rf"^shift r = {r}: no fractional scheme with r >= 2 converges .*solve with r = 1"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in (1, 2):
            with pytest.raises(ValueError, match=message):
                solve_bvp(problem, "fractional", 8, p=p, r=r)
            with pytest.raises(ValueError, match=message):
                list(iter_convergence_study(problem, "fractional", [4, 8], p=p, r=r))


# each built-in problem with the schemes it takes and how to assemble them
_BUILT_IN_PROBLEMS = {
    "sine": (sine_bvp, {"central": assemble_central, "unified": assemble_unified}),
    "power-law": (lambda field: power_law_fractional_bvp(F(8, 5), field),
                  {"fractional": assemble_fractional}),
}
_CROSSED_FIELDS = [(data, solve) for data in (FLOAT64, bigdecimal(30))
                   for solve in (FLOAT64, bigdecimal(30), RATIONAL) if data.name != solve.name]


@pytest.mark.parametrize("data_in, solve_in", _CROSSED_FIELDS,
                         ids=[f"{d.name}-in-{s.name}" for d, s in _CROSSED_FIELDS])
@pytest.mark.parametrize("kind", sorted(_BUILT_IN_PROBLEMS))
def test_problem_in_another_arithmetic_is_refused_before_any_work(monkeypatch, kind, data_in,
                                                                 solve_in):
    # the problem's grid functions compute in its own field, so in another
    # arithmetic they would fail deep in numpy or decimal: the gate names both fields first
    def refuse(*args, **kwargs):
        raise AssertionError("a crossed solve reached the expansion or the problem data")

    _fresh_generator_memo(monkeypatch)
    monkeypatch.setattr(solvers, "_expand", refuse)
    factory, schemes = _BUILT_IN_PROBLEMS[kind]
    problem = dataclasses.replace(factory(data_in), rhs=refuse, exact=refuse)
    message = (rf"^problem data are in {data_in.name}; solve them in {data_in.name}, "
               rf"not in {solve_in.name}$")
    for scheme, assemble in schemes.items():
        with pytest.raises(ValueError, match=message):
            solve_bvp(problem, scheme, 8, solve_in)
        with pytest.raises(ValueError, match=message):
            list(iter_convergence_study(problem, scheme, [4, 8], solve_in))
        with pytest.raises(ValueError, match=message):
            assemble(problem, 8, solve_in)


@pytest.mark.parametrize("data_digits, solve_digits", [(30, 20), (20, 30)])
@pytest.mark.parametrize("kind", sorted(_BUILT_IN_PROBLEMS))
def test_decimal_problem_solves_at_another_precision(kind, data_digits, solve_digits):
    # the same arithmetic at another precision is no mix: the data round into the solve's field
    factory, schemes = _BUILT_IN_PROBLEMS[kind]
    field = bigdecimal(solve_digits)
    for scheme in schemes:
        crossed = solve_bvp(factory(bigdecimal(data_digits)), scheme, 8, field)
        own = solve_bvp(factory(field), scheme, 8)
        assert all(isinstance(u, Decimal) for u in crossed.solution)
        assert abs(crossed.max_error - own.max_error) < Decimal("1e-15"), scheme


@pytest.mark.parametrize("alpha", [F(17, 16), F(3, 2), F(31, 16)], ids=str)
def test_shifts_up_to_one_converge_whenever_they_solve(alpha):
    # the convergence map in f64: every generator of d = 1..4, p = 1..5 at
    # r = 0 or 1 is refused (beta_0 <= 0, condition), or its error falls from
    # N = 32 to N = 128 at an order of at least 0.5
    problem, solved = power_law_fractional_bvp(alpha), 0
    for d, p, r in itertools.product(range(1, 5), range(1, 6), (0, 1)):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                coarse, fine = iter_convergence_study(problem, "fractional", [32, 128], p=p, d=d, r=r)
        except (ValueError, ArithmeticError):
            continue
        assert fine.max_error < coarse.max_error and fine.empirical_order >= 0.5, (d, p, r)
        solved += 1
    assert solved >= 25  # 25, 28 and 35 of the 40


def test_generator_without_positive_beta_0_names_its_configuration():
    # (p, d, r) = (2, 2, 2) at alpha = 3/2 has beta_0 = -2/3, and (4, 2, 1)
    # at 11/10 has -0.0203: both are refused before any expansion
    with pytest.warns(RuntimeWarning, match="experimental"):
        with pytest.raises(ValueError, match=r"^generator \(p, d, r\) = \(2, 2, 2\) has "
                                             r"beta_0 = -0\.666\d* at alpha = 1\.5; "):
            assemble_fractional(power_law_fractional_bvp(F(3, 2)), 8, r=2)
        with pytest.raises(ValueError, match=r"^generator \(p, d, r\) = \(4, 2, 1\) has "
                                             r"beta_0 = -0\.0203\d* at alpha = 1\.1; "):
            solve_bvp(power_law_fractional_bvp(F(11, 10)), "fractional", 16, p=4)
    # the series kernel keeps its own check for miller_expand
    beta = beta_coefficients(derive_params(F(3, 2), 2, 2, 2)).beta
    with pytest.raises(ValueError, match="^fractional exponent requires a positive leading base"):
        miller_expand(beta, F(3, 4), 8)


def test_solve_bvp_unknown_scheme():
    with pytest.raises(ValueError):
        solve_bvp(sine_bvp(), "spectral", 8)


@pytest.mark.parametrize("scheme, option, accepted", [
    ("central", "p", "none"), ("unified", "r", "none"), ("fractional", "q", "p, d, r")])
def test_unknown_scheme_option_names_what_the_scheme_accepts(scheme, option, accepted):
    problem = power_law_fractional_bvp(1.6) if scheme == "fractional" else sine_bvp()
    message = rf"^scheme '{scheme}' takes no option {option}; it accepts {accepted}$"
    with pytest.raises(ValueError, match=message):
        solve_bvp(problem, scheme, 8, **{option: 1})
    with pytest.raises(ValueError, match=message):
        list(iter_convergence_study(problem, scheme, [4, 8], **{option: 1}))


_ENTRY_POINTS = {
    "solve_bvp-central": ("central", lambda problem, n, **o: solve_bvp(problem, "central", n, **o)),
    "solve_bvp-fractional": ("fractional",
                             lambda problem, n, **o: solve_bvp(problem, "fractional", n, **o)),
    "solve_bvp-unified": ("unified", lambda problem, n, **o: solve_bvp(problem, "unified", n, **o)),
    "assemble_central": ("central", assemble_central),
    "assemble_fractional": ("fractional", assemble_fractional),
    "assemble_unified": ("unified", assemble_unified),
}
_ALPHA_MESSAGES = {"central": "^central scheme handles the second derivative only$",
                   "unified": "^unified scheme handles the second derivative only$",
                   "fractional": r"^fractional order must satisfy 1 < alpha < 2$"}
_N_MESSAGE = r"^number of intervals N must be an integer >= 2, got "
_R_MESSAGE = r"^shift r must be a non-negative integer, got "
_GATE_CASES = {  # name: (N, wrong alpha, options, message, or None for the scheme's alpha one)
    "N=1": (1, False, {}, _N_MESSAGE + "1$"),
    "N=2.5": (2.5, False, {}, _N_MESSAGE + r"2\.5$"),
    "N=int64": (np.int64(8), False, {}, _N_MESSAGE + re.escape(repr(np.int64(8))) + "$"),
    "alpha": (8, True, {}, None),
    "alpha-before-N": (1, True, {}, None),
    "option": (8, False, {"q": 1}, r"^scheme '\w+' takes no option q; it accepts "),
    "option-before-alpha": (1, True, {"q": 1}, r"^scheme '\w+' takes no option q; "),
    "r=-1": (8, False, {"r": -1}, _R_MESSAGE + "-1$"),
    "r=True": (8, False, {"r": True}, _R_MESSAGE + "True$"),
    "r=2.5": (8, False, {"r": 2.5}, _R_MESSAGE + r"2\.5$"),
    "N-before-r": (1, False, {"r": -1}, _N_MESSAGE + "1$"),
}


@pytest.mark.parametrize("entry, case", [
    (entry, case) for entry in _ENTRY_POINTS for case in _GATE_CASES])
def test_every_entry_point_checks_its_request_in_one_gate(monkeypatch, entry, case):
    # every check comes before the problem data, the expansion and any warning;
    # for central and unified, r is an option they do not take
    scheme, call = _ENTRY_POINTS[entry]
    n, wrong_alpha, options, message = _GATE_CASES[case]
    if "r" in options and scheme != "fractional":
        message = rf"^scheme '{scheme}' takes no option r; it accepts none$"

    def refuse(*args, **kwargs):
        raise AssertionError("a refused request reached the expansion or the problem data")

    _fresh_generator_memo(monkeypatch)
    monkeypatch.setattr(solvers, "_expand", refuse)
    problem = power_law_fractional_bvp(F(8, 5)) if scheme == "fractional" else sine_bvp()
    alpha = (2 if scheme == "fractional" else F(8, 5)) if wrong_alpha else problem.alpha
    problem = dataclasses.replace(problem, alpha=alpha, rhs=refuse, exact=refuse)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message or _ALPHA_MESSAGES[scheme]):
            call(problem, n, **options)


def test_f64_fold_that_overflows_is_refused_without_a_warning():
    # ua / h^2 overflows at N = 1024: the folded right-hand side holds an inf
    problem = dataclasses.replace(sine_bvp(), ua=1e303)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^right-hand side must not contain infs or NaNs$"):
            solve_bvp(problem, "central", 1024)


def _counted_errstate(monkeypatch) -> Counter:
    """Count the ``np.errstate`` contexts the solvers enter."""
    entered, errstate = Counter(), solvers.np.errstate

    def counted(**kwargs):
        entered[tuple(sorted(kwargs.items()))] += 1
        return errstate(**kwargs)

    monkeypatch.setattr(solvers.np, "errstate", counted)
    return entered


@pytest.mark.parametrize("scheme", ["central", "fractional"])
def test_f64_fold_below_its_overflow_bound_enters_no_errstate(monkeypatch, scheme):
    # only a fold that may overflow is guarded; assembly keeps its guarded fold
    entered = _counted_errstate(monkeypatch)
    problem = sine_bvp() if scheme == "central" else power_law_fractional_bvp(1.6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in (16, 128, 1024):
            solve_bvp(problem, scheme, n)
        list(iter_convergence_study(problem, scheme, [8, 16, 32]))
        assert not entered
        (assemble_central if scheme == "central" else assemble_fractional)(problem, 16)
    assert entered == {(("over", "ignore"),): 1}


@pytest.mark.parametrize("side", ["below", "at", "above"])
def test_f64_fold_at_its_overflow_bound_is_finite_without_a_warning(monkeypatch, side):
    # N = 16 on [-1, 1]: h = 1/8, coeff = (64, -128, 64), |coeff|_1 = 2^8, so
    # the bound on max(|ua|, |ub|) is 2^952, and the fold is guarded from it
    # on. f is near the largest double (u'' = f keeps |u| <= f/2); on either
    # side every product is about 2^958, and the solve is finite, with no warning
    entered = _counted_errstate(monkeypatch)
    ua = {"below": math.nextafter(2.0**952, 0), "at": 2.0**952, "above": 2.0**952 * 1.5}[side]
    f = sys.float_info.max / 8
    problem = BvpProblem(a=-1.0, b=1.0, ua=ua, ub=-ua, rhs=lambda g: np.full(g.n - 1, f),
                         alpha=2, field=FLOAT64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        solution = np.array(solve_bvp(problem, "central", 16).solution)
    assert np.isfinite(solution).all() and solution[0] == ua and solution[-1] == -ua
    assert sum(entered.values()) == (side != "below")


def test_convergence_study_needs_exact():
    prob = BvpProblem(a=0.0, b=1.0, ua=0.0, ub=0.0,
                      rhs=lambda g: g.x[1:-1], alpha=2, field=FLOAT64)
    with pytest.raises(ValueError):
        list(iter_convergence_study(prob, "central", [4, 8]))
    # solve_bvp itself is fine without an exact solution
    rep = solve_bvp(prob, "central", 4)
    assert rep.max_error is None


def test_study_csv_format():
    reports = iter_convergence_study(sine_bvp(), "central", [4, 8])
    lines = study_csv(reports).splitlines()
    assert lines[0] == "N,h,max_error,order"
    assert lines[1].startswith("4,0.5,")
    assert lines[1].endswith(",--")
    n, h, err, order = lines[2].split(",")
    assert (n, h) == ("8", "0.25")
    assert float(err) > 0
    assert float(order) == pytest.approx(2.0, abs=0.3)


def test_study_table_format():
    reports = iter_convergence_study(sine_bvp(), "central", [4, 8])
    lines = study_table(reports).splitlines()
    assert lines[0].split() == ["N", "h", "error", "order", "p"]
    assert lines[1].split()[0] == "4"
    assert lines[1].split()[-1] == "2"
    assert lines[1].split()[-2] == "--"
    assert lines[2].split()[-2] != "--"


# --- structured assembly and elimination against the dense reference ------
#
# The loops below are the dense assembly and elimination that the
# Toeplitz-band builder and the zero-skipping elimination replaced. They stay
# here as the reference: the structured code must reproduce them bit for bit.


def _reference_system(size, field):
    if field.name == "float64":
        return np.zeros((size, size)), np.zeros(size)
    zero = field.zero
    return [[zero] * size for _ in range(size)], [zero] * size


def _reference_central(problem, n, field):
    with field.context():
        grid = _grid(problem, n, field)
        f = problem.rhs(grid)
        scale = field.one / grid.h**2
        matrix, rhs = _reference_system(n - 1, field)
        ua, ub = field.of(problem.ua), field.of(problem.ub)
        for i in range(1, n):
            row = i - 1
            matrix[row][row] = -2 * scale
            if row > 0:
                matrix[row][row - 1] = scale
            if row < n - 2:
                matrix[row][row + 1] = scale
            value = f[i - 1]
            if i == 1:
                value = value - ua * scale
            if i == n - 1:
                value = value - ub * scale
            rhs[row] = value
    return matrix, rhs


def _reference_fractional(problem, n, p, r, field):
    params = derive_params(problem.alpha, 2, p, r, field)
    cv = beta_coefficients(params)
    with field.context():
        alpha = field.of(problem.alpha)
        weights = miller_expand(cv.beta, params.gamma, n + r, field).weights
        grid = _grid(problem, n, field)
        f = problem.rhs(grid)
        scale = field.one / field.power(grid.h, alpha)
        matrix, rhs = _reference_system(n - 1, field)
        ua, ub = field.of(problem.ua), field.of(problem.ub)
        for i in range(1, n):
            value = f[i - 1]
            for k in range(0, i + r + 1):
                j = i + r - k
                if j > n:
                    continue
                coeff = weights[k] * scale
                if j == 0:
                    value = value - coeff * ua
                elif j == n:
                    value = value - coeff * ub
                else:
                    matrix[i - 1][j - 1] = coeff
            rhs[i - 1] = value
    return matrix, rhs


def _bits(values):
    """Every bit of a system or solution: ndarray bytes, or the repr of
    each scalar (which tells 1.0 from 1.00 and -0 from 0 in decimals)."""
    if isinstance(values, np.ndarray):
        return values.dtype.str, values.shape, values.tobytes()
    if isinstance(values, (list, tuple)):
        return [_bits(v) for v in values]
    return repr(values)


STRUCTURE_FIELDS = [FLOAT64, bigdecimal(50)]


@pytest.mark.parametrize("field", STRUCTURE_FIELDS, ids=lambda f: f.name)
@pytest.mark.parametrize("n", [3, 4, 17, 256])
def test_central_band_matches_dense_reference(field, n):
    problem = sine_bvp(field)
    assert _bits(assemble_central(problem, n)) == _bits(_reference_central(problem, n, field))


@pytest.mark.parametrize("n", [2, 3, 4, 17])
def test_central_band_matches_dense_reference_rational(n):
    problem = BvpProblem(a=F(0), b=F(1), ua=F(2), ub=F(-3), rhs=lambda g: 6 * g.x[1:-1],
                         alpha=2, field=RATIONAL)
    assert _bits(assemble_central(problem, n)) == _bits(_reference_central(problem, n, RATIONAL))


# r = 0 and r = 2 are experimental configurations; the (d=2, p=2) generator
# has no positive leading coefficient at r = 2, so that shift uses p = 1
@pytest.mark.parametrize("field", STRUCTURE_FIELDS, ids=lambda f: f.name)
@pytest.mark.parametrize("n", [3, 4, 17, 256])
@pytest.mark.parametrize("p, r", [(2, 0), (2, 1), (1, 2)])
def test_fractional_toeplitz_matches_dense_reference(field, n, p, r):
    problem = power_law_fractional_bvp(F(8, 5), field)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        system = assemble_fractional(problem, n, p=p, r=r)
        reference = _reference_fractional(problem, n, p, r, field)
    assert _bits(system) == _bits(reference)
    if field.name != "float64" and n <= 17:
        x = solve_dense(*system, field)
        _check_against_exact_solution(*system, x)


def _check_against_exact_solution(matrix, rhs, x):
    """Bounds on a 50-digit solution ``x`` that do not trust the elimination
    loop: the same decimals solved as Fractions must satisfy the system
    exactly, so they are its exact solution. With n unknowns, unit
    roundoff u = 10**-49 / 2 and infinity norms, the residual of ``x`` must be
    within the backward bound n u ||A|| ||x||, and its forward error within
    n u cond(A) ||exact||, cond(A) = ||A|| ||A^-1|| from a 400-digit mpmath
    inverse (the systems here have cond(A) < 1e85)."""
    a = [[F(v) for v in row] for row in matrix]
    b = [F(v) for v in rhs]
    exact = solve_dense(a, b)
    assert [sum(p * q for p, q in zip(row, exact)) for row in a] == b
    n, u = len(b), F(1, 2) * F(10) ** -49
    x = [F(v) for v in x]
    norm_a = max(sum(map(abs, row)) for row in a)
    residual = max(abs(bi - sum(p * q for p, q in zip(row, x))) for row, bi in zip(a, b))
    assert residual <= n * u * norm_a * max(map(abs, x))
    with mpmath.workdps(400):
        inverse = mpmath.matrix([[mpmath.mpf(v.numerator) / v.denominator for v in row]
                                 for row in a]) ** -1
        cond = norm_a * F(str(mpmath.mnorm(inverse, mpmath.inf)))
    assert cond < 10**85
    error = max(abs(p - q) for p, q in zip(x, exact))
    assert error <= n * u * cond * max(map(abs, exact))


def _random_banded(size, lower, upper, draw, zero):
    return [[draw() if -lower <= j - i <= upper else zero for j in range(size)]
            for i in range(size)]


def _decimal_draw(rng):
    """Uniform 50-digit decimals in [-1, 1]; call under a 50-digit context."""
    return lambda: Decimal(rng.randint(-10**50, 10**50)).scaleb(-50)


@pytest.mark.parametrize("size, lower, upper",
                         [(24, 23, 1), (24, 1, 1), (24, 23, 3), (24, 2, 3), (24, 1, 23)])
@pytest.mark.parametrize("seed", [1, 2])
def test_decimal_elimination_matches_the_exact_solution(seed, size, lower, upper):
    # diagonally dominant, so cond(A) < 10 and every digit but the last is right
    rng = random.Random(seed)
    field = bigdecimal(50)
    with field.context():
        matrix = _random_banded(size, lower, upper, _decimal_draw(rng), Decimal(0))
        for i in range(size):
            matrix[i][i] += 4 * (upper + 1)
        rhs = [_decimal_draw(rng)() for _ in range(size)]
        x = solve_dense(matrix, rhs, field)
    _check_against_exact_solution(matrix, rhs, x)


@pytest.mark.parametrize("seed", [3, 4])
def test_decimal_elimination_with_row_swaps_hessenberg(seed):
    _check_row_swaps(seed, 19)


@pytest.mark.parametrize("seed", [3, 4])
def test_decimal_elimination_with_row_swaps_two_subdiagonals(seed):
    _check_row_swaps(seed, 2)


def _check_row_swaps(seed, lower):
    # a tiny diagonal and superdiagonal make the pivots come from lower rows.
    # These systems have cond(A) of 1e78 to 1e84, so the forward bound allows
    # a 50-digit solution with no right digit (and three of the four have
    # none); the backward bound is the one that tests the elimination here
    rng = random.Random(seed)
    field = bigdecimal(50)
    size = 20
    with field.context():
        matrix = _random_banded(size, lower, 1, _decimal_draw(rng), Decimal(0))
        for i in range(size):
            for j in (i, i + 1):
                if j < size:
                    matrix[i][j] = matrix[i][j].scaleb(-8)
        rhs = [_decimal_draw(rng)() for _ in range(size)]
        assert max(range(size), key=lambda i: abs(matrix[i][0])) != 0
        x = solve_dense(matrix, rhs, field)
    _check_against_exact_solution(matrix, rhs, x)


@pytest.mark.parametrize("seed", [5, 6])
def test_decimal_elimination_pivots_on_the_largest_entry(seed):
    # the rows of a diagonally dominant system turned down by one, so that all
    # dominant entries but the first row's sit just below the diagonal, and a
    # first entry of 1e-30: eliminating on it, not on the largest entry of its
    # column, leaves a residual more than 1e30 times the backward bound
    rng = random.Random(seed)
    field = bigdecimal(50)
    size = 12
    with field.context():
        matrix = _random_banded(size, size, size, _decimal_draw(rng), Decimal(0))
        for i in range(size):
            matrix[i][i] += 4 * size
        matrix = matrix[-1:] + matrix[:-1]
        matrix[0][0] = Decimal("1e-30")
        rhs = [_decimal_draw(rng)() for _ in range(size)]
        x = solve_dense(matrix, rhs, field)
    _check_against_exact_solution(matrix, rhs, x)


@pytest.mark.parametrize("lower, upper", [(11, 1), (1, 1), (11, 2)])
def test_structured_elimination_rational_is_exact(lower, upper):
    rng = random.Random(5)
    size = 12

    def draw():
        return F(rng.randint(-9, 9), rng.randint(1, 9))

    matrix = _random_banded(size, lower, upper, draw, F(0))
    matrix[0][0] = F(0)  # forces a swap at the first column
    rhs = [draw() for _ in range(size)]
    x = solve_dense(matrix, rhs)
    assert [sum(a * b for a, b in zip(row, x)) for row in matrix] == rhs


def _counting_fraction(tally):
    class Counted(F):
        """A Fraction that tallies the *, /, -, + and abs it takes part in;
        results stay counted."""

    def counted(method, symbol):
        def op(self, *args):
            out = getattr(F, method)(self, *args)
            if out is NotImplemented:  # the other operand's method takes over
                return out
            tally[symbol] += 1
            return Counted(out)
        return op

    for method, symbol in [("__mul__", "*"), ("__rmul__", "*"), ("__truediv__", "/"),
                           ("__rtruediv__", "/"), ("__sub__", "-"), ("__rsub__", "-"),
                           ("__add__", "+"), ("__radd__", "+"), ("__abs__", "abs"),
                           ("__neg__", "neg"), ("__pow__", "**")]:
        setattr(Counted, method, counted(method, symbol))
    return Counted


# --- the double-precision dense path: LAPACK LU ----------------------------


def _lapack_solve(matrix, rhs):
    """Reference: dense LAPACK LU with partial pivoting."""
    return scipy.linalg.lu_solve(scipy.linalg.lu_factor(matrix), rhs)


def _relative_gap(x, reference):
    return float(np.abs(x - reference).max() / np.abs(reference).max())


def _random_float_banded(rng, size, lower, upper, tiny_diagonal=False):
    """Random entries in the band, made well conditioned by a strong
    diagonal, or by a tiny diagonal and strong first off-diagonals, which
    make partial pivoting take its pivots from the row below."""
    matrix = np.triu(np.tril(rng.uniform(-1, 1, (size, size)), upper), -lower)
    strong = (-1, 1) if tiny_diagonal else (0,)
    if tiny_diagonal:
        matrix[np.diag_indices(size)] *= 1e-6
    for offset in strong:
        rows = np.arange(max(0, -offset), size - max(0, offset))
        matrix[rows, rows + offset] += 4 * np.sign(matrix[rows, rows + offset])
    return matrix


FLOAT_SHAPES = {  # (lower, upper) bandwidths
    "upper-hessenberg": (1, 39), "lower-hessenberg": (39, 1), "tridiagonal": (1, 1),
    "upper-triangular": (0, 39), "lower-triangular": (39, 0), "lower-bidiagonal": (1, 0),
}
PIVOTING_SHAPES = ["upper-hessenberg", "lower-hessenberg", "tridiagonal"]


@pytest.mark.parametrize("shape, tiny_diagonal",
                         [(shape, False) for shape in FLOAT_SHAPES]
                         + [(shape, True) for shape in PIVOTING_SHAPES])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_structured_float_solve_matches_lapack(seed, shape, tiny_diagonal):
    rng = np.random.default_rng(seed)
    lower, upper = FLOAT_SHAPES[shape]
    matrix = _random_float_banded(rng, 40, lower, upper, tiny_diagonal)
    rhs = rng.uniform(-1, 1, 40)
    before = matrix.copy(), rhs.copy()
    assert scipy.linalg.bandwidth(matrix) == (lower, upper)
    assert np.linalg.cond(matrix) < 1e4  # so that both solvers agree to 1e-12
    if tiny_diagonal:
        assert (scipy.linalg.lu_factor(matrix)[1] != np.arange(40)).sum() > 10
    x = solve_dense(matrix, rhs)
    assert _relative_gap(x, _lapack_solve(matrix, rhs)) <= 1e-12
    assert np.array_equal(matrix, before[0]) and np.array_equal(rhs, before[1])


def test_structured_float_solve_skips_dense_lu(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense LU called on a structured system")

    expected = {
        "central": solve_bvp(sine_bvp(), "central", 256).max_error,
        "fractional": solve_bvp(power_law_fractional_bvp(F(23, 16)), "fractional", 256).max_error,
    }
    monkeypatch.setattr(scipy.linalg, "lu_factor", refuse)
    assert solve_bvp(sine_bvp(), "central", 256).max_error == expected["central"]
    rep = solve_bvp(power_law_fractional_bvp(F(23, 16)), "fractional", 256)
    assert rep.max_error == expected["fractional"]


def test_dense_systems_keep_lapack_lu(monkeypatch):
    calls = []
    lu_factor = scipy.linalg.lu_factor

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return lu_factor(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "lu_factor", counted)
    solve_bvp(sine_bvp(), "unified", 16)  # collocation: no matrix
    assert calls == []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # r = 2 is an experimental configuration
        solve_dense(*assemble_fractional(power_law_fractional_bvp(F(8, 5)), 64, p=1, r=2))
    assert calls == [(63, 63)]


@pytest.mark.parametrize("matrix", [
    np.array([[1.0, 2.0], [2.0, 4.0]]),
    np.array([[1.0, 2.0, 0.0, 0.0],
              [3.0, 1.0, 5.0, 0.0],
              [4.0, 2.0, 1.0, 2.0],
              [4.0, 2.0, 1.0, 2.0]]),  # lower Hessenberg, two equal rows
    np.array([[2.0, 1.0, 3.0], [1.0, 1.0, 1.0], [0.0, 1.0, -1.0]]),  # upper Hessenberg
    np.diag([-1e3, -1e-12]),  # the floor is relative to the largest magnitude
], ids=["2x2", "lower-hessenberg", "upper-hessenberg", "negative-diagonal"])
def test_singular_structured_float_names_condition(matrix):
    assert min(scipy.linalg.bandwidth(matrix)) <= 1
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # scipy flags an exactly zero pivot
        with pytest.raises(SingularMatrixError, match=r"condition estimate .*--digits"):
            solve_dense(matrix, np.ones(len(matrix)))


@pytest.mark.parametrize("shape", ["tridiagonal", "lower-hessenberg", "dense"])
def test_non_finite_float_input_is_refused(shape):
    lower, upper = FLOAT_SHAPES.get(shape, (5, 5))
    matrix = _random_float_banded(np.random.default_rng(4), 6, lower, upper)
    rhs = np.ones(6)
    for bad in (math.nan, math.inf):
        spoiled = matrix.copy()
        spoiled[2, 2] = bad
        with pytest.raises(SingularMatrixError, match="infs or NaNs"):
            solve_dense(spoiled, rhs)
        spoiled = rhs.copy()
        spoiled[3] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            solve_dense(matrix, spoiled)


@pytest.mark.parametrize("matrix, rhs, shapes", [
    (np.ones((2, 3)), np.ones(2), r"\(2, 3\) and \(2,\)"),
    ([[F(1), F(2), F(3)], [F(4), F(5), F(6)]], [F(1), F(2)], r"\(2, 3\) and \(2,\)"),
    ([[F(1), F(2)], [F(3)]], [F(1), F(2)], r"\(2, 1, 2\) and \(2,\)"),
    (np.eye(3), np.ones(2), r"\(3, 3\) and \(2,\)"),
    ([[F(1), F(0)], [F(0), F(1)]], [F(1)], r"\(2, 2\) and \(1,\)"),
    (np.eye(3), np.ones((3, 1)), r"\(3, 3\) and \(3, 1\)"),
    (np.zeros((0, 0)), np.zeros(0), r"\(0, 0\) and \(0,\)"),
    ([], [], r"\(0,\) and \(0,\)"),
], ids=["ndarray-2x3", "lists-2x3", "ragged", "short-rhs", "short-rhs-lists",
        "column-rhs", "empty-ndarray", "empty-lists"])
def test_solve_dense_input_contract(matrix, rhs, shapes):
    with pytest.raises(ValueError, match=r"nonempty square matrix .* got shapes " + shapes):
        solve_dense(matrix, rhs)


@pytest.mark.parametrize("make_problem, scheme", [
    (lambda field: power_law_fractional_bvp(F(23, 16), field), "fractional"),
    (lambda field: power_law_fractional_bvp(F(47, 32), field), "fractional"),
    (sine_bvp, "central"),
], ids=["fractional-23/16", "fractional-47/32", "central-sine"])
def test_structured_float_solutions_match_dense_lu_on_benchmark_grids(make_problem, scheme):
    # the reference is a 40-digit solve of the same problem: dense LU of the
    # rounded f64 system is itself up to 1.3e-11 away from the true solution
    # at N = 1024. The max error is the solution minus the exact values, so
    # it moves by at most the solutions' gap: 1e-12 of the solution scale.
    problem, precise = make_problem(FLOAT64), make_problem(bigdecimal(40))
    for n in (16, 32, 64, 128, 256, 512, 1024):
        reference = np.array([float(u) for u in solve_bvp(precise, scheme, n).solution])
        report = solve_bvp(problem, scheme, n)
        exact = problem.exact(_grid(problem, n, FLOAT64))
        reference_error = max(abs(u - e) for e, u in zip(exact, reference))
        scale = float(np.abs(reference).max())
        assert _relative_gap(np.array(report.solution), reference) <= 1e-12
        assert abs(report.max_error - reference_error) <= 1e-12 * scale


# --- series solves of the Toeplitz schemes -------------------------------


def _relative_gap_exact(x, reference):
    return max(abs(a - b) for a, b in zip(x, reference)) / max(map(abs, reference))


@pytest.mark.parametrize("n", [16, 128])
@pytest.mark.parametrize("scheme, r", [("central", 1), ("fractional", 1), ("fractional", 0)])
def test_decimal_series_solve_matches_elimination(scheme, r, n):
    field = bigdecimal(50)
    if scheme == "central":
        problem, options, assemble = sine_bvp(field), {}, assemble_central
    else:
        problem, options = power_law_fractional_bvp(F(23, 16), field), {"r": r}
        assemble = assemble_fractional
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # r = 0 is an experimental configuration
        interior = solve_bvp(problem, scheme, n, **options).solution[1:-1]
        expected = solve_dense(*assemble(problem, n, **options), field)
    with field.context():
        assert _relative_gap_exact(interior, expected) <= Decimal("1e-45")


@pytest.mark.parametrize("n", [2, 3, 7, 16])
def test_rational_central_series_solve_is_exact(n):
    problem = BvpProblem(a=F(0), b=F(1), ua=F(2), ub=F(-3), rhs=lambda g: 6 * g.x[1:-1] - 1,
                         alpha=2, field=RATIONAL)
    matrix, rhs = assemble_central(problem, n)
    interior = list(solve_bvp(problem, "central", n).solution[1:-1])
    assert interior == solve_dense(matrix, rhs)
    assert [sum(a * b for a, b in zip(row, interior)) for row in matrix] == rhs


@pytest.mark.parametrize("field", STRUCTURE_FIELDS, ids=lambda f: f.name)
@pytest.mark.parametrize("scheme, r", [("central", 1), ("fractional", 1), ("fractional", 0)])
def test_series_solves_build_no_matrix(monkeypatch, field, scheme, r):
    def refuse(*args, **kwargs):
        raise AssertionError("a matrix was built or factored for a series solve")

    for owner, name in ((solvers, "_band_system"), (solvers, "_solve_exact"),
                        (solvers, "solve_dense"), (scipy.linalg, "toeplitz"),
                        (scipy.linalg, "lu_factor")):
        monkeypatch.setattr(owner, name, refuse)
    if scheme == "central":
        report = solve_bvp(sine_bvp(field), "central", 256)
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # r = 0 is an experimental configuration
            report = solve_bvp(power_law_fractional_bvp(F(23, 16), field), "fractional", 256, r=r)
    assert len(report.solution) == 257 and report.max_error < 1e-3


def test_rational_central_series_solve_is_linear():
    # a convolution with the reciprocal series would take about N^2/2
    # multiplications; the two running sums take O(N)
    n = 256
    tally = Counter()
    counted = _counting_fraction(tally)

    class CountingField(type(RATIONAL)):
        def of(self, value):
            return counted(value)

    field = CountingField("rational")
    problem = BvpProblem(a=counted(0), b=counted(1), ua=counted(2), ub=counted(-3),
                         rhs=lambda g: 6 * g.x[1:-1], alpha=2, field=field)
    interior = solve_bvp(problem, "central", n).solution[1:-1]
    used = dict(tally)
    matrix, rhs = assemble_central(problem, n)
    assert list(interior) == solve_dense(matrix, rhs)
    assert used["*"] < 8 * n and used["/"] < 8 * n


@pytest.mark.parametrize("alpha", [F(23, 16), F(47, 32), 1.34], ids=str)
def test_configured_generator_passes_the_condition_bound(alpha):
    report = solve_bvp(power_law_fractional_bvp(alpha), "fractional", 4096)
    assert report.max_error < 1e-6
    big = bigdecimal(50)
    report = solve_bvp(power_law_fractional_bvp(alpha, big), "fractional", 256)
    assert report.max_error < Decimal("1e-4")


@pytest.mark.parametrize("alpha, n", [(1.34, 32), (1.6, 128)])
def test_divergent_generator_is_refused_by_condition(alpha, n):
    # at these orders the (3, 2, 1) base polynomial has a root inside the
    # unit disk (0.31 and 0.77; the edge-ratio verdict, advisory for p != 2,
    # misses it): the condition bounds are 7.5e28 and 6.1e24, and a solve
    # returns garbage
    with pytest.warns(RuntimeWarning, match="experimental"):
        with pytest.raises(SingularMatrixError,
                           match=r"condition estimate .*e\+2[48].*--mode big --digits"):
            solve_bvp(power_law_fractional_bvp(alpha), "fractional", n, p=3)


def _fresh_generator_memo(monkeypatch):
    """An empty generator memo for this test, so that a patched ``_expand``
    is reached and what it returns is dropped with the test."""
    memo = solvers._generator
    fresh = functools.lru_cache(memo.cache_info().maxsize, typed=True)(memo.__wrapped__)
    assert fresh.cache_parameters() == memo.cache_parameters()
    monkeypatch.setattr(solvers, "_generator", fresh)


def _force_last_reciprocal_term(monkeypatch, value):
    """Make the reciprocal series' last term ``value``: no generator here has
    a vanishing or non-finite one, so the fault is injected."""
    _fresh_generator_memo(monkeypatch)
    expand = solvers._expand

    def expand_with_fault(base, gamma, truncation, field, head=None):
        weights = expand(base, gamma, truncation, field, head)
        if gamma > 0:
            return weights
        weights[-1] = field.of(value)
        return weights

    monkeypatch.setattr(solvers, "_expand", expand_with_fault)


@pytest.mark.parametrize("field", STRUCTURE_FIELDS, ids=lambda f: f.name)
def test_vanishing_reciprocal_term_is_singular(monkeypatch, field):
    # at r = 1 the system is singular exactly when inv[m] vanishes
    _force_last_reciprocal_term(monkeypatch, 0)
    with pytest.raises(SingularMatrixError, match="vanishes at term 15"):
        solve_bvp(power_law_fractional_bvp(F(23, 16), field), "fractional", 16)


def test_non_finite_reciprocal_series_is_refused(monkeypatch):
    _force_last_reciprocal_term(monkeypatch, math.nan)
    with pytest.raises(SingularMatrixError, match="condition estimate nan"):
        solve_bvp(power_law_fractional_bvp(F(23, 16)), "fractional", 16)


def _memo_generators(field):
    """More (alpha, p, d, r) generators than the memo holds: p = 1 in the
    exact field, whose beta_0 = 1 has exact powers."""
    if field is RATIONAL:
        return [(alpha, 1, d, r) for alpha in (F(17, 16), F(3, 2), F(29, 16))
                for d in (1, 2, 3) for r in (0, 1)]
    return [(F(k, 16), p, 2, r) for k in range(21, 32, 2) for p, r in ((2, 1), (2, 0), (3, 0))]


def _memo_solve(field, alpha, p, d, r, n):
    """The repr of one fractional solve of D^alpha u = x^2; in the exact field on
    [0, N], so that h = 1 and h^alpha are exact."""
    problem = BvpProblem(a=field.zero, b=field.of(n if field is RATIONAL else 1), ua=field.zero,
                         ub=field.one, rhs=lambda g: g.x[1:-1] ** 2, alpha=alpha, field=field)
    return repr(solve_bvp(problem, "fractional", n, p=p, d=d, r=r))


@pytest.mark.parametrize("field", [RATIONAL, FLOAT64, bigdecimal(30), bigdecimal(50)],
                         ids=lambda f: f"{f.name}{f.digits or ''}")
def test_solves_do_not_depend_on_the_generator_memo(monkeypatch, field):
    # each solve equals a cold one, whether its series are new, grown from a
    # shorter grid's, a slice of a longer grid's, or built again after the
    # generator was evicted (interleaved: every generator between its grids)
    _fresh_generator_memo(monkeypatch)
    generators, grids = _memo_generators(field), (8, 16, 32)
    assert len(generators) > solvers._generator.cache_info().maxsize
    orders = {"ascending": [(g, n) for g in generators for n in grids],
              "descending": [(g, n) for g in generators for n in reversed(grids)],
              "interleaved": [(g, n) for n in (16, 8, 32) for g in generators]}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        cold = {}
        for generator, n in orders["ascending"]:
            solvers._generator.cache_clear()
            cold[generator, n] = _memo_solve(field, *generator, n)
        for name, order in orders.items():
            solvers._generator.cache_clear()
            for generator, n in order:
                assert _memo_solve(field, *generator, n) == cold[generator, n], (name, generator, n)
            assert solvers._generator.cache_info().currsize == solvers._generator.cache_info().maxsize


def test_generator_is_built_once_and_its_series_grown(monkeypatch):
    # a 50-digit study of one generator on 4 grids: one coefficient vector,
    # one correctly rounded beta_0^(+-gamma) per sign, and each larger grid
    # continues the kept series; a repeated study expands nothing
    _fresh_generator_memo(monkeypatch)
    field, calls, expansions = bigdecimal(50), Counter(), []
    beta, expand, power = solvers.beta_coefficients, solvers._expand, type(field).power

    def counted_beta(params):
        calls["beta_coefficients"] += 1
        return beta(params)

    def counted_expand(base, gamma, truncation, field, head=None):
        expansions.append((gamma > 0, truncation, 0 if head is None else len(head)))
        return expand(base, gamma, truncation, field, head)

    def counted_power(self, base, exponent):
        calls[base, exponent] += 1
        return power(self, base, exponent)

    monkeypatch.setattr(solvers, "beta_coefficients", counted_beta)
    monkeypatch.setattr(solvers, "_expand", counted_expand)
    monkeypatch.setattr(type(field), "power", counted_power)
    params = derive_params(F(8, 5), 2, 2, 1, field)
    b0, gamma = beta_coefficients(params).beta[0], params.gamma
    problem = power_law_fractional_bvp(F(8, 5), field)
    first = list(iter_convergence_study(problem, "fractional", [16, 32, 64, 128]))
    assert calls["beta_coefficients"] == 1
    assert calls[b0, gamma] == 1 and calls[b0, -gamma] == 1
    assert expansions == [(True, 17, 0), (False, 16, 0), (True, 33, 17), (False, 32, 16),
                          (True, 65, 33), (False, 64, 32), (True, 129, 65), (False, 128, 64)]
    calls.clear()
    expansions.clear()
    assert list(iter_convergence_study(problem, "fractional", [16, 32, 64, 128])) == first
    solve_bvp(problem, "fractional", 8)
    assemble_fractional(problem, 64, field=field)
    assert not calls["beta_coefficients"] and not expansions
    assert not calls[b0, gamma] and not calls[b0, -gamma]
    # the kept series are read-only
    kept = solvers._generator(params.alpha, str(params.alpha), 2, 2, 1, field)[2]
    assert sorted(map(len, kept.values())) == [128, 129]
    for series in kept.values():
        with pytest.raises(ValueError, match="read-only"):
            series[0] = series[1]
        with pytest.raises(ValueError, match="read-only"):
            series[:4] *= 2


@pytest.mark.parametrize("field", [RATIONAL, FLOAT64, bigdecimal(30)],
                         ids=lambda f: f"{f.name}{f.digits or ''}")
def test_repeated_request_derives_and_generates_nothing(monkeypatch, field):
    # the memo is keyed on the request: only its first solve runs
    # derive_params and beta_coefficients, and a study on more grids neither
    _fresh_generator_memo(monkeypatch)
    calls, derive, beta = Counter(), solvers.derive_params, solvers.beta_coefficients

    def counted_derive(*args):
        calls["derive_params"] += 1
        return derive(*args)

    def counted_beta(params):
        calls["beta_coefficients"] += 1
        return beta(params)

    monkeypatch.setattr(solvers, "derive_params", counted_derive)
    monkeypatch.setattr(solvers, "beta_coefficients", counted_beta)
    generator = (F(3, 2), 1, 2, 1) if field is RATIONAL else (F(8, 5), 2, 2, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # p = 1 is experimental
        first = _memo_solve(field, *generator, 16)
        assert calls == {"derive_params": 1, "beta_coefficients": 1}
        calls.clear()
        assert _memo_solve(field, *generator, 16) == first
        for n in (8, 32):
            _memo_solve(field, *generator, n)
    assert not calls


def _decimal_studies(field):
    """The decimal studies of the three schemes that the benchmark runs, each
    as (problem, scheme, grids, options), on problems built afresh."""
    sine = sine_bvp(field)
    power = power_law_fractional_bvp(F(8, 5), field)
    return [(sine, "central", [16, 32, 64, 128], {}), (sine, "unified", [4, 8, 16, 32], {}),
            (power, "fractional", [16, 32, 64, 128], {}), (power, "fractional", [16, 32], {"r": 0})]


def test_repeated_decimal_study_computes_no_transcendental_function(monkeypatch):
    # a repeated 50-digit study takes each grid's sin/cos, h^e and h^-alpha
    # from its problem and its generator: no decfun.sin or cos, no Field.power
    _fresh_generator_memo(monkeypatch)
    field, calls = bigdecimal(50), Counter()
    sin, cos, power = solvers.decfun.sin, solvers.decfun.cos, type(field).power

    def counted(name, function):
        def call(*args):
            calls[name] += 1
            return function(*args)
        return call

    studies = _decimal_studies(field)
    monkeypatch.setattr(solvers.decfun, "sin", counted("sin", sin))
    monkeypatch.setattr(solvers.decfun, "cos", counted("cos", cos))
    monkeypatch.setattr(type(field), "power", counted("power", power))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # r = 0 is experimental
        first = [list(iter_convergence_study(problem, scheme, grids, **options))
                 for problem, scheme, grids, options in studies]
        # the first study computes a's (sin, cos) once per guard precision
        # (61, 62 and 63 digits) and h's once per grid (6 distinct (precision,
        # h)); each generator its beta_0^(+-gamma) and h^-alpha once per grid
        assert calls == {"sin": 3 + 6, "cos": 3 + 6, "power": (2 + 4) + (2 + 2)}
        calls.clear()
        again = [list(iter_convergence_study(problem, scheme, grids, **options))
                 for problem, scheme, grids, options in studies]
    assert not calls
    assert repr(again) == repr(first)


def test_repeated_power_law_grid_reuses_its_kept_scale():
    # h^e is kept per precision and text of h: the second evaluation of a
    # grid reads it (a kept 0 makes every value 0) and computes no other
    field, e = bigdecimal(50), Decimal(23) / 5
    grid = _grid(power_law_fractional_bvp(F(8, 5), field), 16, field)
    kept = {}
    first = solvers._decimal_powers(grid, e, field, kept)
    [(prec, (_, _, scales))] = kept.items()
    assert list(scales) == [str(grid.h)]
    assert repr(solvers._decimal_powers(grid, e, field, kept)) == repr(first)
    scales[str(grid.h)] = Decimal(0)
    assert not any(solvers._decimal_powers(grid, e, field, kept))
    assert list(kept) == [prec] and list(scales) == [str(grid.h)]
    # a step equal in value, other in exponent, gets its own
    wider = dataclasses.replace(grid, h=Decimal("0.06250"))
    assert repr(solvers._decimal_powers(wider, e, field, kept)) == repr(first)
    assert list(scales) == ["0.0625", "0.06250"]


@pytest.mark.parametrize("digits", [30, 50])
def test_warm_decimal_solves_equal_fresh_problem_solves(monkeypatch, digits):
    # every solve of a repeated study has the repr of a solve on a problem
    # built afresh, with an empty generator memo, for all three schemes
    _fresh_generator_memo(monkeypatch)
    field = bigdecimal(digits)
    studies = _decimal_studies(field)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # r = 0 is experimental
        for _ in range(2):  # the second pass is warm
            warm = [solve_bvp(problem, scheme, n, **options)
                    for problem, scheme, grids, options in studies for n in grids]
        fresh = []
        for k, (_, scheme, grids, options) in enumerate(studies):
            for n in grids:
                solvers._generator.cache_clear()
                fresh.append(solve_bvp(_decimal_studies(field)[k][0], scheme, n, **options))
    assert repr(warm) == repr(fresh)


def test_equal_steps_of_different_exponents_each_keep_their_own_scale(monkeypatch):
    # b = 1 and b = 1.00 give the steps 0.5 and 0.50 at N = 2 and 0.2 and
    # 0.20 at N = 5 (2 and 2.00 over N for the sine's [-1, 1]): keyed by
    # text, each step gets its own h^-alpha, h^e and (sin h, cos h), and
    # every solve has the repr of its cold solve
    _fresh_generator_memo(monkeypatch)
    field, powers, sines = bigdecimal(30), Counter(), Counter()
    power, sin = type(field).power, solvers.decfun.sin

    def counted_power(self, base, exponent):
        powers[str(base)] += 1
        return power(self, base, exponent)

    def counted_sin(x):
        sines[str(x)] += 1
        return sin(x)

    def problems():
        fractional, sine = power_law_fractional_bvp(F(8, 5), field), sine_bvp(field)
        return [(fractional, "fractional"),
                (dataclasses.replace(fractional, b=Decimal("1.00")), "fractional"),
                (sine, "central"), (dataclasses.replace(sine, b=Decimal("1.00")), "central")]

    cold = {}
    for k, n in itertools.product(range(4), (2, 5)):
        solvers._generator.cache_clear()
        problem, scheme = problems()[k]
        cold[k, n] = repr(solve_bvp(problem, scheme, n))
    solvers._generator.cache_clear()
    warm = problems()  # each pair of problems shares its data's memo
    monkeypatch.setattr(type(field), "power", counted_power)
    monkeypatch.setattr(solvers.decfun, "sin", counted_sin)
    for _ in range(2):
        for n, k in itertools.product((2, 5), range(4)):
            assert repr(solve_bvp(*warm[k], n)) == cold[k, n], (k, n)
    steps = ["0.5", "0.50", "0.2", "0.20"]
    assert [powers[h] for h in steps] == [1, 1, 1, 1]
    alpha = field.of(F(8, 5))
    assert sorted(solvers._generator(alpha, str(alpha), 2, 2, 1, field)[3]) == sorted(steps)
    assert sines == {"-1": 1, "1": 1, "1.00": 1, "0.4": 1, "0.40": 1}


@pytest.mark.parametrize("field, alphas", [
    (bigdecimal(30), (Decimal("1.6"), Decimal("1.60"))),
    (bigdecimal(30), (F(3, 2), 1.5)),
    (FLOAT64, (F(3, 2), 1.5)),
    (RATIONAL, (F(3, 2), 1.5)),
], ids=["decimal-exponents", "decimal-fraction-float", "float64", "rational"])
def test_equal_alphas_of_different_reprs_each_solve_as_cold(monkeypatch, field, alphas):
    # the solve of each alpha, with the other's generator in the memo, has
    # the repr of its cold solve (Decimal('1.60') keeps its exponent)
    _fresh_generator_memo(monkeypatch)
    p = 1 if field is RATIONAL else 2
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        cold = {}
        for alpha in alphas:
            solvers._generator.cache_clear()
            cold[alpha] = [_memo_solve(field, alpha, p, 2, 1, n) for n in (8, 16)]
        for alpha in alphas * 2:
            assert [_memo_solve(field, alpha, p, 2, 1, n) for n in (8, 16)] == cold[alpha], alpha


def test_memo_hit_keeps_every_refusal_of_the_generator_options():
    # d and p are checked by derive_params on a miss; True and 2.0 equal the
    # valid 1 and 2, but a request with one of them never hits their entry
    # (the memo's own keys are typed)
    problem = power_law_fractional_bvp(F(8, 5))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for options in ({"p": 1}, {"p": 2}, {"d": 2}, {"d": 1}):
            solve_bvp(problem, "fractional", 8, **options)
        for name, value in (("p", True), ("p", 2.0), ("d", 2.0), ("d", True)):
            label = "accuracy order p" if name == "p" else "base derivative order d"
            for _ in range(2):
                with pytest.raises(ValueError, match=rf"^{label} must be a positive integer, "):
                    solve_bvp(problem, "fractional", 8, **{name: value})


@pytest.mark.parametrize("call", [
    lambda problem: solve_bvp(problem, "fractional", 8, p=1),
    lambda problem: study_csv(iter_convergence_study(problem, "fractional", [8, 16], p=1)),
    lambda problem: list(iter_convergence_study(problem, "fractional", [8, 16], p=1)),
    lambda problem: assemble_fractional(problem, 8, p=1),
], ids=["solve_bvp", "study_csv", "iter_convergence_study", "assemble_fractional"])
def test_solver_warnings_point_at_the_caller(monkeypatch, call):
    # (p, d, r) = (1, 2, 1) is experimental and its edge ratio is 1: both
    # warnings name this file, on a memo miss and on a hit
    _fresh_generator_memo(monkeypatch)
    problem = power_law_fractional_bvp(F(8, 5))
    for memo in ("miss", "hit"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call(problem)
        assert sorted({str(w.message).split(" ")[0] for w in caught}) == ["configuration", "generator"]
        assert {w.filename for w in caught} == {__file__}, memo


@pytest.mark.parametrize("p", [3, 4])
def test_fractional_r0_studies_reach_order_p_in_50_digits(p):
    # x^(3 + alpha) is smooth enough for order p <= 4 at alpha = 8/5: the
    # (d, p, r) = (2, p, 0) order on N = 32 .. 512 ends within 0.05 of p
    problem = power_law_fractional_bvp(F(8, 5), bigdecimal(50))
    with pytest.warns(RuntimeWarning, match="experimental"):
        reports = list(iter_convergence_study(problem, "fractional", [32, 64, 128, 256, 512],
                                              p=p, r=0))
    assert [r.approx_order for r in reports] == [p] * 5
    assert abs(reports[-1].empirical_order - p) < 0.05, [r.empirical_order for r in reports]


def test_decimal_series_solve_follows_its_digits():
    # the limit is 10^(digits - 2): the 7.5e28 bound above is refused at 20
    # digits and solved at the 50 the hint names
    with pytest.warns(RuntimeWarning, match="experimental"):
        with pytest.raises(SingularMatrixError, match=r"7\.5e\+28.*--digits 50"):
            solve_bvp(power_law_fractional_bvp(1.34, bigdecimal(20)), "fractional", 32, p=3)
        report = solve_bvp(power_law_fractional_bvp(1.34, bigdecimal(50)), "fractional", 32, p=3)
    assert len(report.solution) == 33


@pytest.mark.parametrize("scheme", ["central", "fractional"])
def test_series_solve_refuses_non_finite_data(scheme):
    for bad in (math.nan, math.inf):
        problem = BvpProblem(a=0.0, b=1.0, ua=0.0, ub=1.0, rhs=lambda g, bad=bad: bad * g.x[1:-1],
                             alpha=2.0 if scheme == "central" else 1.5, field=FLOAT64)
        with pytest.raises(ValueError, match="infs or NaNs"):
            solve_bvp(problem, scheme, 8)


@pytest.mark.parametrize("field, exact", [
    (FLOAT64, lambda g: np.sqrt(g.x - 0.5)),
    (bigdecimal(20), lambda g: [Decimal(0)] * g.n + [Decimal("Infinity")]),
    (bigdecimal(20), lambda g: [Decimal(0)] * g.n + [Decimal("NaN")]),
], ids=["f64-nan", "decimal-infinity", "decimal-nan"])
@pytest.mark.parametrize("scheme", ["central", "unified"])
def test_a_non_finite_exact_solution_is_refused(field, exact, scheme):
    # checked where rhs is: in f64 the error was nan and the study's order
    # nan, in a decimal field an infinite error or a bare InvalidOperation
    problem = BvpProblem(a=field.zero, b=field.one, ua=field.zero, ub=field.zero, alpha=2,
                         rhs=lambda g: [field.zero] * (g.n - 1), exact=exact, field=field)
    for solve in (lambda: solve_bvp(problem, scheme, 8),
                  lambda: list(iter_convergence_study(problem, scheme, [4, 8]))):
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="infs or NaNs"):
            solve()


@pytest.mark.parametrize("field", [RATIONAL, FLOAT64, bigdecimal(30)], ids=lambda f: f.name)
def test_complex_problem_data_are_refused_in_every_field(field):
    # double precision kept the real part, with one ComplexWarning
    problem = BvpProblem(a=field.zero, b=field.one, ua=field.zero, ub=field.zero, alpha=2,
                         rhs=lambda g: (6 + 1j) * g.x[1:-1], field=field)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scheme in ("central", "unified"):
            with pytest.raises(TypeError):
                solve_bvp(problem, scheme, 8)


@pytest.mark.parametrize("field", [FLOAT64, bigdecimal(30)], ids=lambda f: f.name)
@pytest.mark.parametrize("scheme, options", [("central", {}), ("fractional", {"r": 0}),
                                             ("fractional", {"r": 1})])
@pytest.mark.parametrize("where", ["rhs", "ua", "ub"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_band_solves_refuse_non_finite_data_in_every_field(field, scheme, options, where, bad):
    # checked once in the field before folding: at r = 0 ub never enters the
    # right-hand side, and a decimal NaN or infinity otherwise gives a NaN
    # solution or a bare InvalidOperation
    data = {"rhs": field.one, "ua": field.zero, "ub": field.one, where: field.of(bad)}
    rhs = [field.one] * 3 + [data["rhs"]] * 4  # the bad value from the middle on, N = 8
    problem = BvpProblem(a=field.zero, b=field.one, ua=data["ua"], ub=data["ub"], rhs=lambda g: rhs,
                         alpha=field.of(2 if scheme == "central" else F(3, 2)), field=field)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # r = 0 is experimental
        with pytest.raises(ValueError, match="infs or NaNs"):
            solve_bvp(problem, scheme, 8, **options)


# --- problem data as grid functions ---------------------------------------


@pytest.mark.parametrize("field", [RATIONAL, FLOAT64, bigdecimal(50)], ids=lambda f: f.name)
def test_grid_holds_the_points_in_the_field(field):
    problem = BvpProblem(a=field.of(-1), b=field.of(2), ua=0, ub=0, rhs=None, alpha=2)
    grid = _grid(problem, 3, field)
    assert (grid.a, grid.h, grid.n) == (-1, 1, 3)
    if field is FLOAT64:
        assert grid.x.dtype == np.float64 and grid.x.tolist() == [-1.0, 0.0, 1.0, 2.0]
    else:
        assert grid.x.dtype == object and list(grid.x) == [-1, 0, 1, 2]
        assert {type(x) for x in grid.x} == {type(field.one)}


def _counting(problem):
    """``problem`` with rhs and exact that record the grid of every call."""
    calls = {"rhs": [], "exact": []}

    def counted(name, function):
        def grid_function(grid):
            calls[name].append(grid)
            return function(grid)
        return grid_function

    return dataclasses.replace(problem, rhs=counted("rhs", problem.rhs),
                               exact=counted("exact", problem.exact)), calls


@pytest.mark.parametrize("field", STRUCTURE_FIELDS, ids=lambda f: f.name)
@pytest.mark.parametrize("scheme, options", [
    ("central", {}), ("unified", {}), ("fractional", {"r": 1}), ("fractional", {"r": 0})],
    ids=["central", "unified", "fractional-r1", "fractional-r0"])
def test_each_solve_evaluates_rhs_and_exact_once(field, scheme, options):
    if scheme == "fractional":
        problem, calls = _counting(power_law_fractional_bvp(F(23, 16), field))
    else:
        problem, calls = _counting(sine_bvp(field))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # r = 0 is an experimental configuration
        list(iter_convergence_study(problem, scheme, [4, 8, 16], **options))
    for name in ("rhs", "exact"):
        assert [grid.n for grid in calls[name]] == [4, 8, 16]
    # both see the same points
    assert all(list(r.x) == list(e.x) for r, e in zip(calls["rhs"], calls["exact"]))


@pytest.mark.parametrize("field", STRUCTURE_FIELDS, ids=lambda f: f.name)
@pytest.mark.parametrize("scheme", ["central", "unified", "fractional"])
@pytest.mark.parametrize("name, expected, points", [("rhs", 7, "interior"), ("exact", 9, "grid")])
def test_grid_function_of_wrong_length_is_refused(field, scheme, name, expected, points):
    if scheme == "fractional":
        problem = power_law_fractional_bvp(F(23, 16), field)
    else:
        problem = sine_bvp(field)
    good = getattr(problem, name)
    message = (rf"^problem\.{name} must return {expected} values on a grid of N = 8 "
               rf"\(one per {points} point\), got an array of shape ")
    for bad, shape in ((lambda g: good(g)[:-1], r"\(%d,\)" % (expected - 1)),
                       (lambda g: [*good(g), good(g)[0]], r"\(%d,\)" % (expected + 1)),
                       (lambda g: good(g)[0], r"\(\)")):
        with pytest.raises(ValueError, match=message + shape + "$"):
            solve_bvp(dataclasses.replace(problem, **{name: bad}), scheme, 8)


def test_rhs_singular_at_an_end_is_only_evaluated_inside():
    # u'' = (3/4) x^(-1/2) with u = x^(3/2): f is infinite at x = 0, which
    # the interior-only rhs never meets
    problem = BvpProblem(a=0.0, b=1.0, ua=0.0, ub=1.0, alpha=2,
                         rhs=lambda g: 0.75 * g.x[1:-1] ** -0.5, exact=lambda g: g.x**1.5,
                         field=FLOAT64)
    reports = list(iter_convergence_study(problem, "central", [16, 64, 256]))
    assert all(np.isfinite(report.solution).all() for report in reports)
    assert reports[-1].max_error < 1e-4 and reports[-1].empirical_order > 1.3


def test_convergence_study_measures_no_order_between_equal_grids():
    # log(N/N) = 0: a repeated grid has no order to measure, and the next
    # grid is measured against it
    study = list(iter_convergence_study(sine_bvp(), "central", [8, 8, 16]))
    assert [r.n_intervals for r in study] == [8, 8, 16]
    assert study[0].empirical_order is None and study[1].empirical_order is None
    assert study[1].max_error == study[0].max_error
    assert study[2].empirical_order == pytest.approx(2, abs=0.05)
    decimal = list(iter_convergence_study(sine_bvp(bigdecimal(30)), "central", [8, 8]))
    assert decimal[1].empirical_order is None


def test_iter_convergence_study_yields_the_grids_before_a_refusal():
    reports = iter_convergence_study(sine_bvp(), "unified", [4, 8, 16, 32, 64])
    solved = [next(reports) for _ in range(4)]
    assert [r.n_intervals for r in solved] == [4, 8, 16, 32]
    assert solved[0].empirical_order is None and solved[-1].empirical_order < 0
    with pytest.raises(SingularMatrixError, match="condition estimate"):
        next(reports)
    study = list(iter_convergence_study(sine_bvp(), "unified", [4, 8, 16, 32]))
    assert [(r.max_error, r.empirical_order) for r in study] == \
        [(r.max_error, r.empirical_order) for r in solved]


def test_decimal_power_law_data_need_a_grid_from_zero():
    field = bigdecimal(50)
    problem = power_law_fractional_bvp(F(3, 2), field)
    grid = dataclasses.replace(_grid(problem, 8, field), a=Decimal("0.5"))
    with pytest.raises(ValueError, match="grid starting at 0, got a = 0.5"):
        problem.exact(grid)


@pytest.mark.parametrize("alpha", [F(87, 64), F(100, 64), F(127, 64)], ids=str)
def test_decimal_power_law_exact_matches_per_point_powers(alpha):
    # h^e i^e by multiplicativity rounds to the correctly rounded x^e on the
    # benchmark grids, so the max errors of the decimal studies are unchanged
    field = bigdecimal(50)
    problem = power_law_fractional_bvp(alpha, field)
    for n in (16, 100, 128):
        grid = _grid(problem, n, field)
        want = [field.power(x, 3 + field.of(alpha)) for x in grid.x]
        assert list(solvers._grid_values(problem, "exact", grid, field)) == want


# --- the binomial ladder of the decimal power law -----------------------------

LADDER_ALPHAS = [F(65, 64), F(7, 5), F(3, 2), F(127, 64)]


def _ladder_points(n):
    """Every point up to N = 1000; at N = 4096 every 31st, the prime 4093 and N."""
    return range(n + 1) if n <= 1000 else [*range(0, n + 1, 31), 4093, n]


@pytest.mark.parametrize("digits", [20, 50, 100])
@pytest.mark.parametrize("alpha", LADDER_ALPHAS, ids=str)
def test_decimal_power_law_is_within_half_an_ulp_and_the_guard_of_mpmath(digits, alpha):
    # not equality with the correctly rounded x^e: see the near tie below
    field = bigdecimal(digits)
    problem = power_law_fractional_bvp(alpha, field)
    for n in (2, 3, 5, 1000, 4096):
        grid = _grid(problem, n, field)
        guard = solvers._guard(field, grid).digits
        values = solvers._grid_values(problem, "exact", grid, field)
        with mpmath.workdps(digits + 40):
            e = 3 + mpmath.mpf(alpha.numerator) / alpha.denominator
            slack = mpmath.mpf(10) ** (3 - guard)
            for i in _ladder_points(n):
                want, value = mpmath.mpf(str(grid.x[i])) ** e, values[i]
                if not want:
                    assert value == 0
                    continue
                ulp = mpmath.mpf(10) ** (value.adjusted() + 1 - digits)
                assert abs(mpmath.mpf(str(value)) - want) <= ulp / 2 + slack * want, (n, i)


def test_decimal_power_law_ladder_alone_is_within_its_error_budget(monkeypatch):
    # with h = 1 (so h^e = 1 exactly) and no guard digits, each value is the
    # i^e climbed at digits + 3 digits and rounded once to the field: at most
    # 10^(1 - digits)/2 relative, plus the climb's own budget at N = 4096 and
    # e < 5, 778 u with u = 10^-(digits + 2)/2, or 3890 10^-(digits + 3); the
    # bound allows two roundings and 275 10^-(digits + 3), 10275 in all
    monkeypatch.setattr(solvers, "_guard", lambda field, grid: field)
    n = 4096
    for digits in (20, 50, 100):
        field = bigdecimal(digits)
        grid = Grid(field.zero, field.one, n, field.vector(range(n + 1)))
        for alpha in LADDER_ALPHAS:
            problem = power_law_fractional_bvp(alpha, field)
            values = solvers._grid_values(problem, "exact", grid, field)
            with mpmath.workdps(digits + 40):
                e = 3 + mpmath.mpf(alpha.numerator) / alpha.denominator
                bound = mpmath.mpf(10) ** (1 - digits) + 275 * mpmath.mpf(10) ** -(digits + 3)
                for i in _ladder_points(n):
                    want = mpmath.mpf(i) ** e
                    assert abs(mpmath.mpf(str(values[i])) - want) <= bound * want, (digits, i)


def _climb_counts(n):
    """The series (2^e counts three) and the products behind each climbed
    i^e, i <= n: p^e (i/p)^e for the least prime factor p of a composite i,
    (i-1)^e (1 + 1/(i-1))^e for a prime i >= 3."""
    series, products = [0, 0, 3], [0, 0, 2]
    for i in range(3, n + 1):
        p = next(q for q in range(2, i + 1) if i % q == 0)
        parts = (p, i // p) if p < i else (i - 1,)
        series.append(sum(series[j] for j in parts) + (p == i))
        products.append(sum(products[j] for j in parts) + 1)
    return series, products


@pytest.mark.parametrize("digits", [20, 50, 100])
@pytest.mark.parametrize("e", ["0.5", "1.25", "2.75", "7.75", "12.5", "13"])
def test_decimal_powers_meet_the_budget_for_any_exponent(digits, e):
    # the budget holds for every e > 0, not only the problem's 4 < e < 5: on
    # N = 1024 (every point) and on N = 300, whose step 1/300 is rounded, each
    # value is within half an ulp and the guard of mpmath at the exact point,
    # as above, and each climbed i^e within the (R (2e + 8) + M) u of
    # ``_decimal_powers``
    field = bigdecimal(digits)
    e = Decimal(e)
    series, products = _climb_counts(1024)
    problem = power_law_fractional_bvp(F(3, 2), field)
    for grid in (_grid(problem, 1024, field), _grid(problem, 300, field)):
        guard, kept = solvers._guard(field, grid).digits, {}
        values = field.vector(solvers._decimal_powers(grid, e, field, kept))
        [(prec, (_, powers, _))] = kept.items()
        assert prec == guard + 3 and len(powers) == grid.n + 1
        with mpmath.workdps(digits + 40):
            me = mpmath.mpf(str(e))
            slack, u = mpmath.mpf(10) ** (3 - guard), mpmath.mpf(10) ** (1 - prec) / 2
            for i, (x, value, power) in enumerate(zip(grid.x, values, powers)):
                budget = (series[i] * (2 * me + 8) + products[i]) * u
                assert abs(mpmath.mpf(str(power)) - i ** me) <= budget * i ** me, (grid.n, i)
                want = mpmath.mpf(str(x)) ** me
                if not want:
                    assert value == 0
                    continue
                ulp = mpmath.mpf(10) ** (value.adjusted() + 1 - digits)
                assert abs(mpmath.mpf(str(value)) - want) <= ulp / 2 + slack * want, (grid.n, i)


@pytest.mark.parametrize("digits", [20, 50, 100])
@pytest.mark.parametrize("alpha", LADDER_ALPHAS, ids=str)
def test_decimal_power_law_small_and_rounded_grids_match_per_point_powers(digits, alpha):
    # N = 2 and 3 have no composite to climb from; at N = 11 and 12 some
    # exact point a + i h has more digits than the field, and each value is
    # the correctly rounded power of that exact point
    field = bigdecimal(digits)
    problem = power_law_fractional_bvp(alpha, field)
    e = 3 + field.of(alpha)
    grids = [_grid(problem, n, field) for n in (2, 3, 11, 12)]
    assert all(any(field.of(x) != x for x in grid.x) for grid in grids[2:])
    with field.context():
        u = Decimal(10) ** -digits
        near_tie, neighbours = 1 - u, (1 - 5 * u, 1 - 4 * u)
    for grid in grids:
        for x, value in zip(grid.x, solvers._grid_values(problem, "exact", grid, field)):
            if x == near_tie and e == Decimal("4.5"):
                # x_3 = 3h = 1 - u at N = 3: x^(9/2) = 1 - 4.5 u + 7.875 u^2
                # - ... lies 7.9e-digits ulp above a tie, which no guard
                # width resolves; the ladder rounds it down at 20 and 100
                # digits, as exp(e ln 3) did at 20
                assert value in neighbours
                continue
            assert value == field._context.power(x, e), (grid.n, x)


# --- the three-term sine recurrence and the exact grid points ---------------

@pytest.mark.parametrize("digits", [20, 50, 100])
def test_decimal_sines_are_within_half_an_ulp_and_the_guard_of_mpmath(digits):
    # every point of the sine problem's grids and of N = 300 on [0, 100],
    # whose step 1/3 is rounded, against the sine of the exact point a + i h;
    # x = 0 gives exactly 0. On [-1, 1], N = 6 and 300 leave a point next to
    # 0 (x_3 = -10^-digits, x_150 = 5 10^-(digits + 1)), whose sine is
    # relative to it
    field = bigdecimal(digits)
    problem = sine_bvp(field)
    grids = [_grid(problem, n, field) for n in (2, 3, 5, 6, 300, 1000, 4096)]
    thirds = dataclasses.replace(problem, a=field.zero, b=field.of(100))
    for grid in grids + [_grid(thirds, 300, field)]:
        guard = solvers._guard(field, grid).digits
        values = solvers._grid_values(problem, "exact", grid, field)
        with mpmath.workdps(digits + 40):
            slack = mpmath.mpf(10) ** (3 - guard)
            for i, (x, value) in enumerate(zip(grid.x, values)):
                want = mpmath.sin(mpmath.mpf(str(x)))
                if not want:
                    assert value == 0 and repr(value) == "Decimal('0')", (grid.n, i)
                    continue
                ulp = mpmath.mpf(10) ** (value.adjusted() + 1 - digits)
                assert abs(mpmath.mpf(str(value)) - want) <= ulp / 2 + slack, (grid.n, i)


def test_decimal_sine_recurrence_alone_is_within_its_error_budget(monkeypatch):
    # with no guard digits each value is the recurrence at the field's own
    # precision: within (7 i^2 / 2 + 6 i + 1) u of sin x_i, u = 10^(1 - digits)/2,
    # inside the worst case (7 i^2 + 17 i + 12) u / 2 of ``_decimal_sines``;
    # the bound is absolute, also at N = 300's x_150 = 5 10^-(digits + 1), a
    # point next to 0 that the rounded step leaves
    monkeypatch.setattr(solvers, "_guard", lambda field, grid: field)
    for digits in (20, 50):
        field = bigdecimal(digits)
        problem = sine_bvp(field)
        for grid in (_grid(problem, n, field) for n in (4096, 999, 1000, 300)):
            values = solvers._grid_values(problem, "exact", grid, field)
            with mpmath.workdps(digits + 40):
                u = mpmath.mpf(10) ** (1 - digits) / 2
                for i, (x, value) in enumerate(zip(grid.x, values)):
                    error = abs(mpmath.mpf(str(value)) - mpmath.sin(mpmath.mpf(str(x))))
                    assert error <= (mpmath.mpf(7) * i * i / 2 + 6 * i + 1) * u, (grid.n, i)


@pytest.mark.parametrize("a", ["1E-100000", "0E-100000"])
@pytest.mark.parametrize("n", [8, 4096])
def test_decimal_grid_of_too_many_digits_is_refused(a, n):
    # a domain end far below the step: each point a + i h would hold 100,001
    # digits (about 170 MB of points at N = 4096); refused before any is built
    field = bigdecimal(20)
    problem = BvpProblem(a=Decimal(a), b=1, ua=0, ub=0, rhs=lambda g: [0] * (g.n - 1), alpha=2,
                         field=field)
    with pytest.raises(ValueError, match=rf"a = {a} and h = .* would hold 100001 digits, "
                                         r"above 2 \* 20 \+ 20"):
        solve_bvp(problem, "central", n)


@pytest.mark.parametrize("scheme, n", [("central", 128), ("fractional", 128), ("unified", 32)])
def test_warm_decimal_solve_rounds_its_data_into_the_field_once(monkeypatch, scheme, n):
    # the n + 1 exact and n - 1 right-hand side values each go through ``of``
    # once, with a few scalars besides; the unified solution, built from
    # values already in the field, through it not at all
    field = bigdecimal(50)
    problem = (power_law_fractional_bvp(F(8, 5), field) if scheme == "fractional"
               else sine_bvp(field))
    solve_bvp(problem, scheme, n)
    calls, of = [], type(field).of
    monkeypatch.setattr(type(field), "of", lambda self, value: calls.append(1) or of(self, value))
    solve_bvp(problem, scheme, n)
    assert len(calls) <= 2 * n + 16


def _exactly_uniform(grid):
    """Whether x_i == a + i h at every point, by exact arithmetic."""
    with localcontext(solvers._EXACT):
        return all(x == grid.a + i * grid.h for i, x in enumerate(grid.x))


@pytest.mark.parametrize("digits, a, b, sizes", [
    *(pytest.param(digits, a, 1, range(2, 65), id=f"{a}-{digits}")
      for a in (0, -1, F(1, 3), -10**40) for digits in (20, 50)),
    pytest.param(2, F(-99, 10), F(99, 10), [198], id="-99/10-2"),
])
def test_decimal_grid_points_are_a_plus_i_h_exactly(digits, a, b, sizes):
    # the step is the field's h = (b - a)/n, and every point a + i h keeps all
    # its digits, where the field would round it: at 2 digits i h rounds for
    # i >= 100 (12.3 to 12), and x_123 is still -9.9 + 12.3
    field = type(bigdecimal(15))("bigdecimal", digits)  # 2 is past bigdecimal's 15-digit floor
    problem = BvpProblem(a=a, b=b, ua=0, ub=0, rhs=lambda g: [0] * (g.n - 1), alpha=2, field=field)
    for n in sizes:
        grid = _grid(problem, n, field)
        assert _exactly_uniform(grid), n
    if digits == 2:
        assert grid.h == Decimal("0.10") and grid.x[123] == Decimal("2.4")


def test_decimal_power_law_takes_one_logarithm_per_grid():
    # every Decimal.ln and Decimal.exp call, traced by the profiler hook
    field = bigdecimal(50)
    problem = power_law_fractional_bvp(F(8, 5), field)
    for n in (2, 16, 128, 1024):
        grid = _grid(problem, n, field)
        calls = Counter()

        def count_calls(frame, event, arg):
            if event == "c_call":
                calls[arg.__name__] += 1

        sys.setprofile(count_calls)
        try:
            problem.exact(grid)
        finally:
            sys.setprofile(None)
        assert (calls["ln"], calls["exp"]) == (1, 1), n


def test_decimal_power_law_climbs_each_rung_once_per_problem(monkeypatch):
    # N = 10 .. 99 share one working precision (ceil(log10(N + 1)) = 2 guard
    # digits for the grid), so one binomial table and one ladder: (1 + 1/m)^e
    # once for m = 8 and 3 (for 2^e) and once for m = p - 1 at each prime
    # 3 <= p <= 64
    field = bigdecimal(50)
    rises, rise = Counter(), solvers._rise
    monkeypatch.setattr(solvers, "_rise",
                        lambda table, e, m: rises.update([m]) or rise(table, e, m))
    problem = power_law_fractional_bvp(F(8, 5), field)
    study = list(iter_convergence_study(problem, "fractional", [16, 32, 64]))
    primes = [p for p in range(3, 65) if all(p % q for q in range(2, p))]
    assert rises == Counter([8, 3] + [p - 1 for p in primes])
    # solving a grid again, or a smaller one, climbs nothing
    rises.clear()
    again = solve_bvp(problem, "fractional", 32)
    assert again == dataclasses.replace(study[1], empirical_order=None)
    problem.exact(_grid(problem, 12, field))
    assert not rises
    # every grid's data equal those of a problem built afresh for it
    for n in (8, 16, 32, 64, 128, 5, 100):
        grid = _grid(problem, n, field)
        fresh = power_law_fractional_bvp(F(8, 5), field)
        assert repr(problem.exact(grid).tolist()) == repr(fresh.exact(grid).tolist()), n


def _plain(value):
    """Nested lists of the values of arrays and tuples, for an exact repr."""
    if isinstance(value, (np.ndarray, list, tuple)):
        return [_plain(v) for v in (value.tolist() if isinstance(value, np.ndarray) else value)]
    return value


def _solver_digests():
    """sha256 digests of the solver outputs, as reprs (the sign of a zero, a
    Decimal's exponent): the unified solve_bvp records of the f64 and
    decimal fields in the second, the fractional solve_bvp records of the
    decimal fields in the third, the f64 fractional records (solve_bvp and
    assemble_fractional) in the fourth, every other record in the first."""
    kept, unified, fractional, f64_fractional = (hashlib.sha256() for _ in range(4))

    def record(*parts, into=kept):
        into.update(repr(_plain(parts)).encode() + b"\n")

    for field in (RATIONAL, FLOAT64, bigdecimal(30), bigdecimal(50)):
        problem = cubic_problem() if field is RATIONAL else sine_bvp(field)
        for n in (2, 3, 4, 8, 16):
            for scheme in ("central", "unified"):
                report = solve_bvp(problem, scheme, n, field)
                moved = scheme == "unified" and field is not RATIONAL
                record(field, scheme, n, report.solution, report.max_error, report.h,
                       into=unified if moved else kept)
        for n in (4, 8):
            record(field, n, assemble_central(problem, n, field), assemble_unified(problem, n, field))
        if field is RATIONAL:
            continue
        problem = power_law_fractional_bvp(F(8, 5), field)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for n in (2, 3, 4, 8, 16, 64):
                for options in ({"r": 1}, {"r": 0}, {"p": 1, "r": 2}):
                    if options["r"] < 2:  # solve_bvp refuses r >= 2
                        report = solve_bvp(problem, "fractional", n, field, **options)
                        record(field, options, n, report.solution, report.max_error, report.h,
                               into=f64_fractional if field is FLOAT64 else fractional)
                    if n in (4, 8):
                        record(field, options, n, assemble_fractional(problem, n, field=field,
                                                                      **options),
                               into=f64_fractional if field is FLOAT64 else kept)
    for field in (RATIONAL, FLOAT64, bigdecimal(30)):
        for alpha, d, p, r in ((2, 1, 3, 1), (F(8, 5), 2, 2, 1), (F(8, 5), 2, 5, F(1, 2)),
                               (3, 2, 4, F(7, 3)), (F(1, 2), 1, 6, 0)):
            cv = beta_coefficients(derive_params(alpha, d, p, r, field))
            for count in (1, p, p + 2):
                record(field, alpha, d, p, r, count, symbol_series(cv, count))
    return kept.hexdigest(), unified.hexdigest(), fractional.hexdigest(), f64_fractional.hexdigest()


def test_solver_outputs_are_unchanged():
    # solve_bvp (solution, max_error, h), the assemble_* systems and
    # symbol_series in the rational, f64 and 30- and 50-digit fields, except
    # the unified solves outside the exact field, the decimal fractional
    # solves and the f64 fractional records; taken with the dense unified
    # solver, which gave the same rational unified solutions, with the
    # decimal fractional records split off before their series products
    # became exact, and with the f64 fractional records split off before
    # their series left BLAS. The fractional r = 2 system is assembled only,
    # as solve_bvp refuses it. The 50-digit power-law data carry the
    # correctly rounded Gamma(28/5), and the decimal sine data are exactly 0
    # at x = 0 (four assembled right-hand sides hold one each) and taken at
    # the exact points a + i h, with the step rounded at N = 3.
    assert _solver_digests()[0] == "8dd4e5a9a3529c9c79fe50f3e6c6c556355bf118c0e597ec74f4097d3251523b"


def test_unified_float_and_decimal_outputs_are_pinned():
    # the f64 and decimal unified solves, each the exact collocation of the
    # field's data rounded once (checked against exact elimination below);
    # the decimal midpoint values are exactly 0, as the sine data are at x = 0,
    # and the sine data are taken at the exact points a + i h
    assert _solver_digests()[1] == "4486283db689d5174e5a0360c80b1e45c4651f65b4dce856b5297f0f88c0f53e"


def test_decimal_fractional_outputs_are_pinned():
    # the 30- and 50-digit fractional solves, whose series products are the
    # exact sums rounded once (checked against exact sums in
    # test_properties.py and against elimination above), the 50-digit ones
    # with the correctly rounded Gamma(28/5) in their data
    assert _solver_digests()[2] == "e7959788c4ab42891a2b3216b849bca0e65cbf16ad25c5702e251e40b48468ed"


def test_f64_fractional_outputs_are_pinned():
    # the f64 fractional solves and assemble_fractional systems, whose
    # weight series sum each term of the Miller recurrence on Python floats
    # in a fixed order, so they have the same bits on every IEEE host
    assert _solver_digests()[3] == "a52428768a713a56403e9182bf42f449ae5abd462eda05421e073420eb41e8e9"


def test_f64_series_solves_at_large_grids_are_pinned():
    # reprs of solution and max_error of the f64 central and fractional
    # (r = 1 and 0) series solves where the array path pays most, one digest
    # each for the central and the fractional solves; the central one taken
    # before the weight series became arrays from expansion to solution, the
    # fractional one after its series left BLAS
    digests = {"central": hashlib.sha256(), "fractional": hashlib.sha256()}
    central, fractional = sine_bvp(), power_law_fractional_bvp(F(8, 5))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for n in (256, 1024, 4096):
            for problem, scheme, options in ((central, "central", {}),
                                             (fractional, "fractional", {"r": 1}),
                                             (fractional, "fractional", {"r": 0})):
                report = solve_bvp(problem, scheme, n, **options)
                digests[scheme].update(repr((scheme, options, n, report.solution,
                                             report.max_error)).encode() + b"\n")
    assert {scheme: digest.hexdigest() for scheme, digest in digests.items()} == {
        "central": "42058e172b3988dab0a03301e940a8eef2cfb74e15e23875bcaf1e4b4b496c8a",
        "fractional": "d2bae959d4fdca5201b6173e2246aef66436e875d939f91c84e97ada16c9bb9b",
    }


# --- the unified scheme by exact collocation ---------------------------------


def _random_rational_problem(rng, n):
    """A rational problem on a random domain with random boundary values and
    random data at the n - 1 interior points."""
    a = F(rng.randint(-9, 9), rng.randint(1, 9))
    values = [F(rng.randint(-99, 99), rng.randint(1, 99)) for _ in range(n - 1)]
    return BvpProblem(a=a, b=a + F(rng.randint(1, 30), rng.randint(1, 7)),
                      ua=F(rng.randint(-9, 9), rng.randint(1, 9)),
                      ub=F(rng.randint(-9, 9), rng.randint(1, 9)),
                      rhs=lambda g: values, alpha=2, field=RATIONAL)


def test_rational_unified_equals_dense_elimination():
    rng = random.Random(11)
    for n in range(2, 21):
        problem = _random_rational_problem(rng, n)
        want = solve_dense(*assemble_unified(problem, n, RATIONAL), RATIONAL)
        assert list(solve_bvp(problem, "unified", n).solution[1:-1]) == want, n


def _same_data_in_rationals(problem, n, field):
    """The rational problem whose unified system holds exactly the data that
    ``field`` gives the solve: ua, ub, h and f at the interior points."""
    grid = _grid(problem, n, field)
    with field.context():
        values = [F(f) for f in problem.rhs(grid)]
    a = F(grid.a)
    return BvpProblem(a=a, b=a + n * F(grid.h), ua=F(field.of(problem.ua)),
                      ub=F(field.of(problem.ub)), rhs=lambda g: values, alpha=2, field=RATIONAL)


@pytest.mark.parametrize("field", [FLOAT64, bigdecimal(50)], ids=lambda f: f.name)
@pytest.mark.parametrize("n", [2, 3, 5, 8, 16, 24])
def test_float_unified_is_the_rational_solve_of_its_data_rounded_once(field, n):
    problem = sine_bvp(field)
    exact = solve_dense(*assemble_unified(_same_data_in_rationals(problem, n, field), n, RATIONAL))
    got = solve_bvp(problem, "unified", n).solution[1:-1]
    assert [repr(u) for u in got] == [repr(field.of(u)) for u in exact]


UNIFIED_DATA_BOUNDS = {16: 1.80e3, 32: 9.19e7, 40: 2.18e10, 52: 8.19e13, 56: 1.28e15, 64: 3.14e17}


@pytest.mark.parametrize("n, bound", UNIFIED_DATA_BOUNDS.items())
def test_unified_data_bound_is_pinned(n, bound):
    assert float(solvers._data_bound(n)) == pytest.approx(bound, rel=5e-3)


def _column_by_column_bound(n):
    """||A_N||_inf from n - 1 rational unified solves with h = 1, zero
    boundary values and a unit vector as the right-hand side."""
    rows = np.zeros(n - 1, dtype=object)
    for j in range(n - 1):
        unit = [F(int(i == j)) for i in range(n - 1)]
        problem = BvpProblem(a=F(0), b=F(n), ua=F(0), ub=F(0), rhs=lambda g, u=unit: u,
                             alpha=2, field=RATIONAL)
        rows += np.abs(np.array(solve_bvp(problem, "unified", n).solution[1:-1], dtype=object))
    return max(rows)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 13, 16, 31, 40])
def test_unified_data_bound_matches_column_by_column_solves(n):
    assert solvers._data_bound(n) == _column_by_column_bound(n)


def test_unified_data_bound_in_column_blocks_equals_one_block(monkeypatch):
    # a block of 7 leaves a partial last block unless 7 divides N - 1
    bound = solvers._data_bound.__wrapped__
    for n in range(2, 71):
        monkeypatch.setattr(solvers, "_DATA_BLOCK", 7)
        in_blocks = bound(n)
        monkeypatch.setattr(solvers, "_DATA_BLOCK", n)
        assert in_blocks == bound(n), n


@pytest.mark.parametrize("n", [2, 3, 6])
def test_unified_data_bound_matches_the_inverse_of_the_dense_system(n):
    unit = BvpProblem(a=F(0), b=F(n), ua=F(0), ub=F(0), rhs=lambda g: [F(0)] * (n - 1),
                      alpha=2, field=RATIONAL)
    matrix, _ = assemble_unified(unit, n, RATIONAL)
    columns = [solve_dense(matrix, [F(int(i == j)) for i in range(n - 1)]) for j in range(n - 1)]
    assert solvers._data_bound(n) == max(sum(abs(c[i]) for c in columns) for i in range(n - 1))


@pytest.mark.parametrize("n", [*range(2, 13), 16, 31, 32, 52, 53, 56, 64, 65])
def test_unified_sign_bound_is_a_lower_bound_and_close_from_n_8(n):
    low, exact = solvers._sign_bound(n), solvers._data_bound(n)
    assert 0 < low <= exact
    if n >= 8:
        assert low == exact if n % 2 == 0 else low >= F(98, 100) * exact


def test_unified_refuses_a_large_grid_without_the_exact_bound(monkeypatch):
    def refuse(n):
        raise AssertionError("O(N^3) exact bound computed for a grid the lower bound refuses")

    monkeypatch.setattr(solvers, "_data_bound", refuse)
    with pytest.raises(SingularMatrixError, match=r"condition estimate 1\.3e\+75\)"):
        solve_bvp(sine_bvp(), "unified", 256)
    with pytest.raises(SingularMatrixError, match=r"condition estimate"):
        solve_bvp(sine_bvp(bigdecimal(50)), "unified", 1024)


def test_unified_refusal_follows_the_digits():
    # 10^(digits - 2) against the bound: 1e14 refuses N = 53 (1.6e14) in
    # double precision, 30 digits carry N = 64 (3.1e17)
    with pytest.raises(SingularMatrixError, match=r"above 1e\+14 \(condition estimate 1\.6e\+14\)"):
        solve_bvp(sine_bvp(), "unified", 53)
    with pytest.raises(SingularMatrixError, match=r"above 1e\+13 \(condition estimate 3\.1e\+17\)"):
        solve_bvp(sine_bvp(bigdecimal(15)), "unified", 64)
    assert solve_bvp(sine_bvp(bigdecimal(30)), "unified", 64).max_error < 1e-10


def test_unified_solve_builds_no_matrix_and_one_grid(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("unified solve reached the dense path")

    for name in ("assemble_unified", "unified_coefficient_rows", "solve_dense"):
        monkeypatch.setattr(solvers, name, refuse)
    monkeypatch.setattr(scipy.linalg, "lu_factor", refuse)
    grids = []
    grid = solvers._grid
    monkeypatch.setattr(solvers, "_grid", lambda *args: grids.append(1) or grid(*args))
    for field in (RATIONAL, FLOAT64, bigdecimal(50)):
        problem = cubic_problem() if field is RATIONAL else sine_bvp(field)
        solve_bvp(problem, "unified", 12, field)
    assert len(grids) == 3


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_unified_solve_refuses_non_finite_data(bad):
    problem = BvpProblem(a=0.0, b=1.0, ua=0.0, ub=1.0, rhs=lambda g: bad * g.x[1:-1],
                         alpha=2.0, field=FLOAT64)
    with pytest.raises(ValueError, match="infs or NaNs"):
        solve_bvp(problem, "unified", 8)
    # finite f on an infinite domain: the step h is refused with the data
    problem = dataclasses.replace(problem, b=math.inf, rhs=lambda g: [1.0] * (g.n - 1))
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="infs or NaNs"):
        solve_bvp(problem, "unified", 8)  # grid point 0 is 0 * inf


@pytest.mark.parametrize("field", [FLOAT64, bigdecimal(30)], ids=lambda f: f.name)
@pytest.mark.parametrize("where", ["rhs", "ua", "ub"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_assemble_unified_refuses_non_finite_data(field, where, bad):
    # the unified system is built from the same checked data as the solves
    data = {"rhs": field.one, "ua": field.zero, "ub": field.one, where: field.of(bad)}
    problem = BvpProblem(a=field.zero, b=field.one, ua=data["ua"], ub=data["ub"],
                         rhs=lambda g: [data["rhs"]] * (g.n - 1), alpha=2, field=field)
    with pytest.raises(ValueError, match="infs or NaNs"):
        assemble_unified(problem, 8)


@pytest.mark.parametrize("scheme", ["central", "unified"])
def test_decimal_sine_data_are_built_once_per_solve(monkeypatch, scheme):
    calls = []
    sines = solvers._decimal_sines
    monkeypatch.setattr(solvers, "_decimal_sines", lambda *args: calls.append(1) or sines(*args))
    problem = sine_bvp(bigdecimal(50))
    for n in (4, 8, 16):
        before = solve_bvp(problem, scheme, n)
        assert len(calls) == 1
        calls.clear()
        # the same values as a fresh evaluation for each of rhs and exact
        grid = _grid(problem, n, problem.field)
        assert list(problem.exact(grid)) == list(sines(grid, problem.field, {}))
        with problem.field.context():
            assert list(problem.rhs(grid)) == list(-sines(grid, problem.field, {})[1:-1])
        assert before.solution == solve_bvp(problem, scheme, n).solution
        calls.clear()
