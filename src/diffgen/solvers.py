"""Dirichlet two-point boundary-value solvers on uniform grids.

* ``assemble_central``    -- the textbook (1, -2, 1)/h^2 Toeplitz band;
* ``assemble_unified``    -- dense: row i holds the maximal-order (p = N-1)
  second-derivative coefficients with shift r = i, so the scheme's order
  grows with the grid;
* ``assemble_fractional`` -- the Toeplitz operator of the order-2 weights for
  a fractional derivative 1 < alpha < 2, expanded from the (d=2, p=2) base
  generator and applied left-sided with zero extension below the domain;
  lower-Hessenberg at the configured shift r = 1.

Boundary values are folded into the right-hand side. Float solves take a
Hessenberg LU on the central and fractional systems (O(N), O(N^2)) and LAPACK
LU on the dense one; exact elimination stays in the band, skipping zeros.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from decimal import Decimal
from fractions import Fraction
from itertools import compress, count
from typing import Callable, Sequence

import numpy as np
import scipy.linalg
from scipy.linalg.blas import daxpy, dswap, dtrsv

from .explicit_form import beta_coefficients, derive_params
from .scalars import FLOAT64, RATIONAL, ExactnessError, Field, Scalar
from .series import convergence_diagnostic, miller_expand

__all__ = [
    "BvpProblem",
    "SolveReport",
    "SingularMatrixError",
    "sine_bvp",
    "power_law_fractional_bvp",
    "assemble_central",
    "assemble_unified",
    "assemble_fractional",
    "unified_coefficient_rows",
    "solve_dense",
    "solve_bvp",
    "convergence_study",
    "study_csv",
    "study_table",
]


class SingularMatrixError(ArithmeticError):
    """The assembled system has no usable pivot."""


@dataclass(frozen=True)
class BvpProblem:
    """Two-point Dirichlet problem D^alpha u = f on [a, b].

    ``field`` (when set, as the factories do) is the arithmetic the problem
    data lives in; solvers use it as their default.
    """

    a: Scalar
    b: Scalar
    ua: Scalar
    ub: Scalar
    rhs: Callable[[Scalar], Scalar]
    alpha: Scalar
    exact: Callable[[Scalar], Scalar] | None = None
    field: Field | None = None

    def __post_init__(self):
        if not self.a < self.b:
            raise ValueError("domain ends must satisfy a < b")


@dataclass(frozen=True)
class SolveReport:
    """One grid's outcome: solution values at the N+1 grid points, the
    max-norm error against the exact solution (when known), the order
    measured against the previous grid in a study, and the configured
    approximation order of the scheme."""

    n_intervals: int
    h: Scalar
    solution: tuple[Scalar, ...]
    max_error: Scalar | None
    empirical_order: float | None = None
    approx_order: int | None = None


def sine_bvp(field: Field = FLOAT64) -> BvpProblem:
    """u'' = -sin x on [-1, 1] with exact solution u = sin x."""
    if field.name == "rational":
        raise ExactnessError("sine problem has no rational data; use float64 or bigdecimal")
    sin = field.sin

    def rhs(x):
        return -sin(x)

    return BvpProblem(
        a=field.of(-1),
        b=field.of(1),
        ua=sin(field.of(-1)),
        ub=sin(field.of(1)),
        rhs=rhs,
        alpha=field.of(2),
        exact=sin,
        field=field,
    )


def power_law_fractional_bvp(alpha, field: Field = FLOAT64) -> BvpProblem:
    """D^alpha y = Gamma(4+alpha)/6 * x^3 on [0, 1] with exact y = x^(3+alpha)."""
    with field.context():
        alpha = field.of(alpha)
        if not (1 < alpha < 2):
            raise ValueError("fractional order must satisfy 1 < alpha < 2")
        gamma_factor = field.gamma(4 + alpha) / 6
        exponent = 3 + alpha

    def rhs(x):
        return gamma_factor * x**3

    def exact(x):
        return field.power(x, exponent)

    return BvpProblem(
        a=field.zero,
        b=field.one,
        ua=field.zero,
        ub=field.one,
        rhs=rhs,
        alpha=alpha,
        exact=exact,
        field=field,
    )


def _resolve_field(problem: BvpProblem, field: Field | None) -> Field:
    return field if field is not None else (problem.field or FLOAT64)


def _grid(problem: BvpProblem, n: int, field: Field):
    with field.context():
        a = field.of(problem.a)
        h = (field.of(problem.b) - a) / n
        xs = [a + i * h for i in range(n + 1)]
    return h, xs


def _band_system(problem: BvpProblem, n: int, field: Field, xs, coeff, r: int):
    """Interior system of the Toeplitz band whose row i puts coeff[k] on u
    at grid index i + r - k; the weights on grid points 0 and n move to the
    right-hand side. Call under ``field.context()``."""
    size, width = n - 1, len(coeff)
    ua, ub = field.of(problem.ua), field.of(problem.ub)
    rhs = []
    for i in range(1, n):
        value = problem.rhs(xs[i])
        if 0 <= i + r - n < width:
            value = value - coeff[i + r - n] * ub
        if i + r < width:
            value = value - coeff[i + r] * ua
        rhs.append(value)
    # padded[off - i + j - 1] is coeff[i + r - j], or zero out of range;
    # field.zero is bound once because each access builds a new scalar
    zero = field.zero
    padded = [zero] * size + coeff[::-1] + [zero] * size
    off = size + width - r
    if field.name == "float64":
        first_col = padded[off - size:off][::-1]
        return scipy.linalg.toeplitz(first_col, padded[off - 1:off - 1 + size]), np.array(rhs)
    return [padded[off - i:off - i + size] for i in range(1, n)], rhs


def assemble_central(problem: BvpProblem, n: int, field: Field | None = None):
    """Tridiagonal interior system for u'' = f: the band (1, -2, 1)/h^2."""
    field = _resolve_field(problem, field)
    if problem.alpha != 2:
        raise ValueError("central scheme handles the second derivative only")
    if not isinstance(n, int) or n < 2:
        raise ValueError("need at least 2 intervals")
    with field.context():
        h, xs = _grid(problem, n, field)
        scale = field.one / h**2
        return _band_system(problem, n, field, xs, [scale, -2 * scale, scale], 1)


def unified_coefficient_rows(n: int) -> list[tuple[Fraction, ...]]:
    """Exact full-grid rows: row i holds the (d=2, p=N-1, r=i) coefficients,
    one weight per grid point 0..N. Rows past N/2 come from the mirror
    identity: with d = 2, row N-i is row i reversed."""
    if not isinstance(n, int) or n < 2:
        raise ValueError("need at least 2 intervals")
    half = [beta_coefficients(derive_params(2, 2, n - 1, i, RATIONAL)).beta
            for i in range(1, n // 2 + 1)]
    return half + [tuple(reversed(row)) for row in reversed(half[: (n - 1) // 2])]


def assemble_unified(problem: BvpProblem, n: int, field: Field | None = None):
    """Full (N-1)x(N-1) interior system whose row i carries the
    maximal-order second-derivative formula shifted to grid point i.

    Coefficients are generated exactly (the shifts are integers) and then
    converted into ``field``; only the solve arithmetic is approximate.
    """
    field = _resolve_field(problem, field)
    if problem.alpha != 2:
        raise ValueError("unified scheme handles the second derivative only")
    exact_rows = unified_coefficient_rows(n)
    with field.context():
        h, xs = _grid(problem, n, field)
        scale = field.one / h**2
        ua, ub = field.of(problem.ua), field.of(problem.ub)
        matrix, rhs = [], []
        for i, exact_row in enumerate(exact_rows, start=1):
            row = [field.of(c) for c in exact_row]
            matrix.append([c * scale for c in row[1:n]])
            rhs.append(problem.rhs(xs[i]) - (row[0] * ua + row[n] * ub) * scale)
    if field.name == "float64":
        return np.array(matrix), np.array(rhs)
    return matrix, rhs


def assemble_fractional(
    problem: BvpProblem,
    n: int,
    p: int = 2,
    d: int = 2,
    r: int = 1,
    field: Field | None = None,
):
    """Interior system for D^alpha u = f, 1 < alpha < 2, from the expanded
    (d, p) generator at shift r.

    Row i applies weight w_k to u at grid index i + r - k, truncated at the
    left boundary (zero extension). The configured case is (p, d, r) =
    (2, 2, 1); anything else is accepted but flagged experimental. A
    divergent generator (edge ratio >= 1) warns and solves anyway.
    """
    field = _resolve_field(problem, field)
    with field.context():
        alpha = field.of(problem.alpha)
        if not (1 < alpha < 2):
            raise ValueError("fractional order must satisfy 1 < alpha < 2")
    if not isinstance(n, int) or n < 2:
        raise ValueError("need at least 2 intervals")
    if not isinstance(r, int) or r < 0:
        raise ValueError("shift r must be a non-negative integer (grid alignment)")
    if (p, d, r) != (2, 2, 1):
        warnings.warn(
            f"configuration (p={p}, d={d}, r={r}) is experimental; "
            "the validated setup is (2, 2, 1)",
            RuntimeWarning,
            stacklevel=2,
        )
    params = derive_params(problem.alpha, d, p, r, field)
    cv = beta_coefficients(params)
    diag = convergence_diagnostic(cv)
    if not diag.converges_on_unit_disk:
        warnings.warn(
            f"generator expansion diverges on the unit disk "
            f"(edge ratio {diag.edge_ratio}); solving anyway",
            RuntimeWarning,
            stacklevel=2,
        )
    with field.context():
        weights = miller_expand(cv.beta, params.gamma, n + r, field).weights
        h, xs = _grid(problem, n, field)
        scale = field.one / field.power(h, alpha)
        return _band_system(problem, n, field, xs, [w * scale for w in weights], r)


def _solve_exact(matrix, rhs):
    # Partial pivoting keeps L within the lower bandwidth and U within lower
    # + upper (read off each row's first and last nonzero by C-level scans),
    # so the pivot search, the row loop and the pivot row's nonzero columns
    # (listed after the swap, so that fill-in counts) stay in the band.
    # Skipping x - f*0 keeps every value (a Decimal's exponent may differ).
    # Entries left of the pivot are never read again.
    m = [list(row) for row in matrix]
    v = list(rhs)
    size = len(v)
    lower = max(i - next(compress(count(), row), i) for i, row in enumerate(m))
    upper = max(size - 1 - i - next(compress(count(), reversed(row)), size - 1 - i)
                for i, row in enumerate(m))
    pattern = []  # the nonzero columns right of the diagonal, per row of U
    for col in range(size):
        below = min(col + lower + 1, size)
        pivot_row = max(range(col, below), key=lambda rr: abs(m[rr][col]))
        if m[pivot_row][col] == 0:
            raise SingularMatrixError(f"zero pivot at column {col}")
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            v[col], v[pivot_row] = v[pivot_row], v[col]
        top = m[col]
        pivot = top[col]
        nonzero = [j for j in range(col + 1, min(col + lower + upper + 1, size)) if top[j] != 0]
        pattern.append(nonzero)
        for row in range(col + 1, below):
            target = m[row]
            if target[col] == 0:
                continue
            factor = target[col] / pivot
            for j in nonzero:
                target[j] = target[j] - factor * top[j]
            v[row] = v[row] - factor * v[col]
    out = [None] * size
    for row in range(size - 1, -1, -1):
        acc = v[row]
        for j in pattern[row]:
            acc = acc - m[row][j] * out[j]
        out[row] = acc / m[row][row]
    return out


def _refuse_tiny_pivot(diagonal, scale, matrix):
    if float(np.abs(diagonal).min()) > 1e-14 * scale:
        return
    # a 1-norm condition estimate from a dense LU, on this failure path only
    lu = scipy.linalg.lu_factor(matrix)[0]
    rcond, _ = scipy.linalg.lapack.dgecon(lu, np.linalg.norm(matrix, 1))
    cond = 1 / rcond if rcond > 0 else math.inf
    digits = max(50, 16 + math.ceil(math.log10(cond))) if math.isfinite(cond) else 50
    raise SingularMatrixError(
        f"pivot below 1e-14 of the matrix scale (condition estimate {cond:.1e}); "
        f"if the exact system is regular, solve it in a decimal field, "
        f"e.g. bigdecimal({digits}) or --mode big --digits {digits}")


def _solve_float(matrix, b):
    scale = float(max(matrix.max(), -matrix.min())) or 1.0  # no N x N temporary
    if not math.isfinite(scale):
        raise SingularMatrixError("matrix must not contain infs or NaNs")
    if not np.isfinite(b).all():
        raise ValueError("right-hand side must not contain infs or NaNs")
    lower, upper = scipy.linalg.bandwidth(matrix)
    if lower > 1 and upper > 1:
        lu, piv = scipy.linalg.lu_factor(matrix, check_finite=False)
        _refuse_tiny_pivot(np.diagonal(lu), scale, matrix)
        return scipy.linalg.lu_solve((lu, piv), b, check_finite=False)
    # Hessenberg LU on a C-ordered copy of the upper-Hessenberg A, or of
    # J A J (J the reversal) for a lower-Hessenberg A. Row k+1 takes pivot k
    # only when strictly larger, as in LAPACK's getrf; each step is one offset
    # BLAS call on the band + 1 entries right of the pivot: O(N^2), O(N) when
    # banded; then one back substitution. Entries below U's diagonal are stale.
    rev = slice(None, None, -1 if lower > 1 else 1)
    band = lower if lower > 1 else upper  # the copy's upper bandwidth
    u = np.array(matrix[rev, rev], dtype=float, order="C")
    flat, y, size = u.ravel(), b[rev].tolist(), len(b)
    item = flat.item
    for k in range(size - 1):
        d = k * (size + 1)  # flat index of u[k, k]
        pivot, sub = item(d), item(d + size)
        width = band + 1 if k + band + 2 <= size else size - 1 - k
        if abs(sub) > abs(pivot):
            dswap(flat, flat, width + 1, d, 1, d + size)
            y[k], y[k + 1] = y[k + 1], y[k]
            pivot, sub = sub, pivot
        if sub:
            factor = sub / pivot
            daxpy(flat, flat, width, -factor, d + 1, 1, d + size + 1)
            y[k + 1] -= factor * y[k]
    _refuse_tiny_pivot(np.diagonal(u), scale, matrix)
    return dtrsv(u.T, y, lower=1, trans=1)[rev]  # U x = y, read through U's F-ordered transpose


def solve_dense(matrix, rhs, field: Field | None = None):
    """Solve a nonempty square system given as a numpy array or as lists of rows.

    numpy arrays with at most one sub- or superdiagonal (tridiagonal,
    Hessenberg, triangular) take a Hessenberg LU, O(N^2) and O(N) when
    banded, others LAPACK LU; both refuse a pivot below 1e-14 of the largest
    entry. Other systems use elimination with the same pivoting and a
    zero-pivot check; it stays in the band, skips structural zeros and returns
    the values of dense elimination, under ``field.context()`` when given.
    """
    shape = matrix.shape if isinstance(matrix, np.ndarray) else (
        len(matrix), *sorted({len(row) for row in matrix}))
    rhs_shape = getattr(rhs, "shape", (len(rhs),))
    if shape[0] == 0 or shape != (shape[0],) * 2 or rhs_shape != shape[:1]:
        raise ValueError(f"need a nonempty square matrix and a right-hand side of "
                         f"matching length, got shapes {shape} and {rhs_shape}")
    if isinstance(matrix, np.ndarray):
        return _solve_float(matrix, np.asarray(rhs, dtype=float))
    if field is not None:
        with field.context():
            return _solve_exact(matrix, rhs)
    return _solve_exact(matrix, rhs)


_ASSEMBLERS = {
    "central": assemble_central,
    "unified": assemble_unified,
    "fractional": assemble_fractional,
}


def _configured_order(scheme: str, n: int, p: int) -> int:
    if scheme == "central":
        return 2
    if scheme == "unified":
        return n - 1
    return p


def solve_bvp(
    problem: BvpProblem,
    scheme: str,
    n: int,
    field: Field | None = None,
    **scheme_options,
) -> SolveReport:
    """Assemble and solve one grid; scheme is central, unified, or fractional."""
    field = _resolve_field(problem, field)
    try:
        assembler = _ASSEMBLERS[scheme]
    except KeyError:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {sorted(_ASSEMBLERS)}") from None
    matrix, rhs = assembler(problem, n, field=field, **scheme_options)
    interior = solve_dense(matrix, rhs, field)
    with field.context():
        h, xs = _grid(problem, n, field)
        solution = [field.of(problem.ua)]
        solution.extend(field.of(v) for v in interior)
        solution.append(field.of(problem.ub))
        max_error = None
        if problem.exact is not None:
            max_error = field.zero
            for x, u in zip(xs, solution):
                err = abs(u - problem.exact(x))
                if err > max_error:
                    max_error = err
    return SolveReport(
        n_intervals=n,
        h=h,
        solution=tuple(solution),
        max_error=max_error,
        approx_order=_configured_order(scheme, n, scheme_options.get("p", 2)),
    )


def _order_between(prev: SolveReport, cur: SolveReport) -> float | None:
    if prev.max_error is None or cur.max_error is None:
        return None
    if prev.max_error == 0 or cur.max_error == 0:
        return None
    if isinstance(cur.max_error, Decimal):
        ratio = prev.max_error / cur.max_error
        step = Decimal(cur.n_intervals) / Decimal(prev.n_intervals)
        return float(ratio.ln() / step.ln())
    ratio = float(prev.max_error) / float(cur.max_error)
    step = cur.n_intervals / prev.n_intervals
    return math.log(ratio) / math.log(step)


def convergence_study(
    problem: BvpProblem,
    scheme: str,
    n_values: Sequence[int],
    field: Field | None = None,
    **scheme_options,
) -> list[SolveReport]:
    """Solve on each grid in n_values and attach empirical orders between
    consecutive grids. Needs problem.exact for the error column."""
    field = _resolve_field(problem, field)
    if problem.exact is None:
        raise ValueError("a convergence study needs the exact solution")
    reports: list[SolveReport] = []
    for n in n_values:
        report = solve_bvp(problem, scheme, n, field, **scheme_options)
        if reports:
            report = replace(report, empirical_order=_order_between(reports[-1], report))
        reports.append(report)
    return reports


def _fmt_error(value) -> str:
    if value is None:
        return "--"
    if isinstance(value, Decimal):
        return f"{value:.5e}"
    return f"{float(value):.5e}"


def _fmt_order(value) -> str:
    return "--" if value is None else f"{value:.4f}"


def study_csv(reports: Sequence[SolveReport]) -> str:
    """CSV lines N,h,max_error,order."""
    lines = ["N,h,max_error,order"]
    for rep in reports:
        lines.append(
            f"{rep.n_intervals},{float(rep.h):.8g},"
            f"{_fmt_error(rep.max_error)},{_fmt_order(rep.empirical_order)}"
        )
    return "\n".join(lines)


def study_table(reports: Sequence[SolveReport], label: str = "error") -> str:
    """Aligned text table: N, h, error, measured order, configured order."""
    header = f"{'N':>6} {'h':>12} {label:>14} {'order':>9} {'p':>5}"
    lines = [header]
    for rep in reports:
        conf = "--" if rep.approx_order is None else str(rep.approx_order)
        lines.append(
            f"{rep.n_intervals:>6} {float(rep.h):>12.6g} "
            f"{_fmt_error(rep.max_error):>14} {_fmt_order(rep.empirical_order):>9} {conf:>5}"
        )
    return "\n".join(lines)
