"""Dirichlet two-point boundary-value solvers on uniform grids.

* ``assemble_central``    -- the textbook (1, -2, 1)/h^2 Toeplitz band;
* ``assemble_unified``    -- dense: row i holds the maximal-order (p = N-1)
  second-derivative coefficients with shift r = i, so the scheme's order
  grows with the grid;
* ``assemble_fractional`` -- the Toeplitz operator of the order-2 weights for
  a fractional derivative 1 < alpha < 2, expanded from the (d=2, p=2) base
  generator and applied left-sided with zero extension below the domain;
  lower-Hessenberg at the configured shift r = 1.

Problem data are grid functions: each solve calls the problem's ``rhs`` and
``exact`` once on the ``Grid`` of its points. Boundary values are folded into
the right-hand side. ``solve_bvp`` builds no matrix:

* central and fractional (r <= 1): from the reciprocal series of the weights,
  refused when ||coeff||_1 ||inv||_1 is above the field's ``condition_limit``.
  The fractional generator's coefficients, verdict and unscaled series are
  kept for the last 16 generators and grown or sliced to each grid, with
  each grid's scale 1/h^alpha. In the exact and decimal fields the series
  product is one exact integer product, each term rounded once;
* unified: by exact collocation. Its solution is the degree-N polynomial with
  the boundary values whose second derivative is f at the interior points,
  built on integers from the field's data and rounded once per value. The
  answer moves only with the rounding of the data, so the solve is refused
  when the exact ||A_N||_inf, of the map from h^2 f to u, is above the
  field's ``condition_limit`` (1e14 in double precision, which solves up to
  N = 52; 10^(digits - 2) in a decimal field).

Fractional shifts r >= 2 are refused before any work: none converges for
1 < alpha < 2 (Meerschaert and Tadjeran 2004). The ``assemble_*`` functions
still build the dense systems, for inspection and ``solve_dense``.

``iter_convergence_study`` yields one report per grid; ``study_csv`` and
``study_table`` format any iterable of reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, getcontext, localcontext
from fractions import Fraction
from functools import lru_cache, reduce
from typing import Callable, Iterable, Iterator, Sequence

from . import decfun
from .explicit_form import _node_polynomial, _warn, beta_coefficients, derive_params
from .scalars import (_NO_CONTEXT, FLOAT64, RATIONAL, Field, Scalar, _integer,
                      _over_common_denominator, bigdecimal, np)
from .series import _expand, convergence_diagnostic

__all__ = [
    "BvpProblem",
    "Grid",
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
    "iter_convergence_study",
    "study_csv",
    "study_table",
]


class SingularMatrixError(ArithmeticError):
    """The assembled system has no usable pivot."""


@dataclass(frozen=True, eq=False)
class Grid:
    """The uniform grid a solve evaluates its problem on: ``n`` intervals of
    width ``h`` from ``a``, and the n + 1 points ``x[i] = a + i*h`` (a float64
    ndarray in double precision, an object ndarray of field scalars otherwise).

    In the exact and decimal fields ``x[i]`` is a + i h exactly, so a decimal
    point may carry more digits than the field. The built-in problems' decimal
    data read ``a``, ``h`` and ``n``, and ``x`` only for the sine's exact zero."""

    a: Scalar
    h: Scalar
    n: int
    x: np.ndarray


@dataclass(frozen=True)
class BvpProblem:
    """Two-point Dirichlet problem D^alpha u = f on [a, b].

    ``rhs`` and ``exact`` are grid functions: a solve calls each once, under
    the field's context, with the ``Grid`` it solves on. ``rhs(grid)``
    returns f at the n - 1 interior points ``grid.x[1:-1]`` (so an f singular
    at an end still works) and ``exact(grid)`` returns u at all n + 1 points,
    each as a sequence or a 1-D array; any other length raises ValueError.
    For u'' = 6x with u = x^3 - x on [0, 1]::

        BvpProblem(a=0.0, b=1.0, ua=0.0, ub=0.0, alpha=2,
                   rhs=lambda g: 6 * g.x[1:-1], exact=lambda g: g.x**3 - g.x)

    ``field`` (when set, as the factories do) is the arithmetic the problem
    data lives in; solvers use it as their default.
    """

    a: Scalar
    b: Scalar
    ua: Scalar
    ub: Scalar
    rhs: Callable[[Grid], Sequence[Scalar]]
    alpha: Scalar
    exact: Callable[[Grid], Sequence[Scalar]] | None = None
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


# exact decimal arithmetic for sums and products (no rounding, no overflow)
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)
_wide = lru_cache(bigdecimal)  # each working precision's field, and its Context, built once
_DATA_BLOCK = 32  # the Lagrange basis columns that _data_bound gathers at a time


def _guard(field: Field, grid: Grid) -> Field:
    """The decimal field that grid data are built in before one rounding: 10
    guard digits, and two per decade of points for the sine recurrence's n^2 u."""
    return _wide(field.digits + 10 + 2 * math.ceil(math.log10(grid.n + 1)))


def _decimal_sines(grid: Grid, field: Field, kept: dict) -> np.ndarray:
    """sin x_i on a decimal grid, rounded once into ``field``: s_0 = sin a,
    s_1 = sin(a + h), s_(i+1) = 2 cos h s_i - s_(i-1) (Goertzel and Reinsch);
    exactly 0 where x_i = 0. An error e at step j reaches point i as
    e sin((i - j) h) / sin h, at most (i - j) e, and one in s_0 at most
    (i - 1) e; a step errs by at most 7u, with 2 cos h's rounding, and s_0,
    s_1 by 6u (u: half a unit in the last guard digit), so |s_i - sin x_i| <=
    (7 i^2 + 17 i + 12) u / 2. ``kept``: (precision, a or h text) -> (sin, cos)."""
    wide = _guard(field, grid)
    with wide.context():
        for x in (grid.a, grid.h):
            if (wide.digits, str(x)) not in kept:
                kept[wide.digits, str(x)] = decfun.sin(x), decfun.cos(x)
        (s, c), (sh, ch) = (kept[wide.digits, str(x)] for x in (grid.a, grid.h))
        twice, sines = 2 * ch, [s, s * ch + c * sh]
        for _ in range(grid.n - 1):
            sines.append(twice * sines[-1] - sines[-2])
    return field.vector([v if x else 0 for v, x in zip(sines, grid.x)])


def sine_bvp(field: Field = FLOAT64) -> BvpProblem:
    """u'' = -sin x on [-1, 1] with exact solution u = sin x.

    ``exact(grid)`` is sin at the n + 1 grid points and ``rhs(grid)`` its
    negation at the interior ones. Double precision takes ``np.sin``; a
    decimal field runs s_(i+1) = 2 cos h s_i - s_(i-1) from sin a and cos a,
    sin h and cos h at digits + 10 + 2 ceil(log10(n + 1)) digits and rounds
    once: within 10^-digits of sin(a + i h), and exactly 0 at x = 0. Both
    serve from one evaluation on the same ``Grid``. The problem keeps
    (sin a, cos a) per working precision and (sin h, cos h) per precision and
    step, so a study computes a's pair once and a repeated grid computes no
    sine. The rational field has no sine and raises ExactnessError.
    """
    latest = [None, None]  # the grid of the latest evaluation and its sines
    kept = {}  # (precision, text of a or h) -> (sin, cos)

    def exact(grid):
        if latest[0] is not grid:
            sines = np.sin(grid.x) if field.name == "float64" else _decimal_sines(grid, field, kept)
            latest[:] = grid, sines
        return latest[1].copy()

    def rhs(grid):
        with field.context():
            return -exact(grid)[1:-1]

    return BvpProblem(
        a=field.of(-1),
        b=field.of(1),
        ua=field.sin(field.of(-1)),
        ub=field.sin(field.of(1)),
        rhs=rhs,
        alpha=field.of(2),
        exact=exact,
        field=field,
    )


def _smallest_prime_factors(n: int) -> list[int]:
    """spf[i] for 0 <= i <= n (spf[i] = i for i < 2 and for primes)."""
    spf = list(range(n + 1))
    for p in range(2, math.isqrt(n) + 1):
        if spf[p] == p:
            for m in range(p * p, n + 1, p):
                if spf[m] == m:
                    spf[m] = p
    return spf


def _rise(binomial: list, e: Decimal, m: int) -> Decimal:
    """(1 + 1/m)^e by Horner over the first floor(e) + 2 + ceil(prec / log10 m)
    terms C(e, k) m^-k of ``binomial``, in the active context."""
    total, divisor = Decimal(0), Decimal(m)  # one conversion, not one per term
    for c in reversed(binomial[:math.floor(e) + 2 + math.ceil(getcontext().prec / math.log10(m))]):
        total = c + total / divisor
    return total


def _decimal_powers(grid: Grid, e: Decimal, field: Field, kept: dict) -> np.ndarray:
    """x_i^e on a decimal grid from 0: h^e * i^e, each rounded once into ``field``.

    h^e is the step's one exp(e ln h). The i^e are climbed at P = guard + 3
    digits: p^e (i/p)^e for a composite with least prime factor p,
    (p-1)^e (1 + 1/(p-1))^e for a prime p >= 3 and 2^e = (9/8)^e ((4/3)^e)^2,
    each (1 + 1/m)^e by ``_rise``. Budget for any e > 0, u = 10^(1-P)/2:
    past k > e the terms alternate and shrink, |C(e, k)| <= 1, so the tail
    past K terms is below m^-K <= 10^-P/4. Term k takes 3k roundings in
    C(e, k) and 2k + 1 in Horner, and sum_k (5k + 1) |C(e, k)| m^-k <=
    (5e/3 + 7) (1 + 1/m)^e: a series is within (2e + 8) u, a product u. A
    value takes at most R series (2^e counts three) and M products, each
    below 3.6 log2 n: (R, M) = (22, 21) at n = 128, (41, 40) at 4096, so
    (R (2e + 8) + M) u = 778 u < 4 10^-guard at e < 5, n = 4096. ``kept``
    maps each P to the C(e, k) for m = 2, the i^e climbed so far and a dict
    from the text of each step h to its h^e."""
    if grid.a != 0:
        raise ValueError(f"power-law grid data need a grid starting at 0, got a = {grid.a}")
    wide = _guard(field, grid)
    prec = wide.digits + 3
    with _wide(prec).context():
        if prec not in kept:
            binomial = [Decimal(1)]
            for k in range(1, math.floor(e) + 2 + math.ceil(prec / math.log10(2))):
                binomial.append(binomial[-1] * (e - (k - 1)) / k)
            three = _rise(binomial, e, 3)
            powers = [Decimal(0), Decimal(1), _rise(binomial, e, 8) * three * three]
            kept[prec] = binomial, powers, {}
        binomial, powers, scales = kept[prec]
        if len(powers) <= grid.n:
            powers = powers.copy()  # a race between two climbs only repeats work
            spf = _smallest_prime_factors(grid.n)
            for i, p in enumerate(spf[len(powers):], len(powers)):
                powers.append(powers[p] * powers[i // p] if p < i
                              else powers[i - 1] * _rise(binomial, e, i - 1))
            kept[prec] = binomial, powers, scales
    with wide.context():
        if str(grid.h) not in scales:
            scales[str(grid.h)] = (e * grid.h.ln()).exp()
        scale = scales[str(grid.h)]
        values = [scale * power for power in powers[:grid.n + 1]]
    return field.vector(values)


def power_law_fractional_bvp(alpha, field: Field = FLOAT64) -> BvpProblem:
    """D^alpha y = Gamma(4+alpha)/6 * x^3 on [0, 1] with exact y = x^(3+alpha).

    ``rhs(grid)`` is f at the interior points. ``exact(grid)`` is
    ``grid.x ** (3 + alpha)`` in double precision; in a decimal field it is
    h^e * i^e, h^e from one logarithm and i^e by binomial series over the
    primes <= n, at digits + 10 + 2 ceil(log10(n + 1)) digits, rounded once.
    The problem keeps the binomial table, the i^e and each step's h^e per
    working precision, so a study finds each i^e once and a repeated grid
    computes no logarithm. A grid that does not start at 0 raises ValueError.
    """
    with field.context():
        alpha = field.of(alpha)
        if not (1 < alpha < 2):
            raise ValueError("fractional order must satisfy 1 < alpha < 2")
        gamma_factor = field.gamma(4 + alpha) / 6
        exponent = 3 + alpha
    kept = {}  # precision -> (C(e, k), i^e up to the largest n yet, text of h -> h^e)

    def rhs(grid):
        with field.context():
            return gamma_factor * grid.x[1:-1] ** 3

    def exact(grid):
        if field.name == "float64":
            return grid.x ** exponent
        return _decimal_powers(grid, exponent, field, kept)

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


# each scheme's options and their defaults: (p, d, r) = (2, 2, 1) is the validated generator
_SCHEME_OPTIONS = {"central": {}, "fractional": {"p": 2, "d": 2, "r": 1}, "unified": {}}


def _checked(problem: BvpProblem, scheme: str, n: int, field: Field | None, options):
    """The field (``field``, else the problem's, else FLOAT64) and the
    scheme's ``options`` over its defaults, once the field's arithmetic (the
    problem's, when it declares a field, at any precision), the scheme and
    the option names, alpha (2, or 1 < alpha < 2 for the fractional scheme),
    the number of intervals n (an int >= 2) and the shift r (a non-negative
    int) are checked, in that order; each failure raises ValueError."""
    field = field if field is not None else (problem.field or FLOAT64)
    if problem.field is not None and field.name != problem.field.name:
        raise ValueError(f"problem data are in {problem.field.name}; solve them in "
                         f"{problem.field.name}, not in {field.name}")
    if scheme not in _SCHEME_OPTIONS:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {sorted(_SCHEME_OPTIONS)}")
    defaults = _SCHEME_OPTIONS[scheme]
    if not options.keys() <= defaults.keys():
        unknown = ", ".join(sorted(options.keys() - defaults.keys()))
        raise ValueError(f"scheme {scheme!r} takes no option {unknown}; it accepts "
                         f"{', '.join(defaults) or 'none'}")
    if scheme == "fractional":
        if not 1 < field.of(problem.alpha) < 2:
            raise ValueError("fractional order must satisfy 1 < alpha < 2")
    elif problem.alpha != 2:
        raise ValueError(f"{scheme} scheme handles the second derivative only")
    _integer("number of intervals N", n, 2)
    options = {**defaults, **options}
    _integer("shift r", options.get("r", 0), 0)  # a scheme without the option has no shift
    return field, options


def _grid(problem: BvpProblem, n: int, field: Field) -> Grid:
    with field.context():
        a = field.of(problem.a)
        h = (field.of(problem.b) - a) / n
    points = np.arange(n + 1)  # each int64 is a float64 exactly
    if field.name == "float64":
        return Grid(a, h, n, a + points * h)
    with localcontext(_EXACT):  # every x_i is a + i h, with all its digits
        return Grid(a, h, n, a + points.astype(object) * h)


def _grid_values(problem: BvpProblem, name: str, grid: Grid, field: Field) -> np.ndarray:
    """A new ``field.vector`` of ``problem.rhs(grid)`` (n - 1 values) or
    ``problem.exact(grid)`` (n + 1 values); a wrong length raises ValueError,
    and so does a value that is not finite."""
    values = getattr(problem, name)(grid)
    count, points = (grid.n - 1, "interior") if name == "rhs" else (grid.n + 1, "grid")
    if np.shape(values) != (count,):
        raise ValueError(f"problem.{name} must return {count} values on a grid of N = {grid.n} "
                         f"(one per {points} point), got an array of shape {np.shape(values)}")
    values = field.vector(values)
    if not field.finite(values):
        raise ValueError(f"problem.{name} must not return infs or NaNs")
    return values


def _problem_data(problem: BvpProblem, grid: Grid, field: Field):
    """ua, ub and a new ``field.vector`` of f at the interior points, read
    once; a non-finite value (or grid step) raises ValueError. Call under
    ``field.context()``."""
    ua, ub = field.of(problem.ua), field.of(problem.ub)
    if not field.finite((ua, ub, grid.h)):
        raise ValueError("problem data must not contain infs or NaNs")
    return ua, ub, _grid_values(problem, "rhs", grid, field)


def _band_rhs(problem: BvpProblem, grid: Grid, field: Field, coeff, r: int, norm=math.inf):
    """ua, ub, the right-hand side of the Toeplitz band whose row i puts
    coeff[k] on u at grid index i + r - k (f at the interior points, less the
    weights on grid points 0 and n times the boundary values, in that order
    in each row) and whether the fold was guarded: an f64 fold runs under
    ``np.errstate(over="ignore")`` (an overflow gives an inf, no warning) unless
    ``norm`` = |coeff|_1 (unknown by default) times max(|ua|, |ub|) is below
    2^960, in Python floats, which do not warn. Each product is then at most
    about 2^960, far under half an ulp (2^970) at the top of the double range,
    so subtracting it from finite data cannot round to inf. Call under
    ``field.context()``."""
    n, width = grid.n, len(coeff)
    ua, ub, rhs = _problem_data(problem, grid, field)
    guarded = field.name == "float64" and not float(norm) * max(abs(ua), abs(ub)) < 2.0**960
    # rows i = n - r .. n - 1 put coeff[i + r - n] on grid point n, while
    # that is a weight; rows 1 .. width - r - 1 put coeff[i + r] on point 0
    first, last = max(1, n - r), min(n - 1, n - r + width - 1)
    with np.errstate(over="ignore") if guarded else _NO_CONTEXT:
        if first <= last:
            rhs[first - 1:last] = rhs[first - 1:last] - coeff[first + r - n:last + r - n + 1] * ub
        last = min(n - 1, width - r - 1)
        if last >= 1:
            rhs[:last] = rhs[:last] - coeff[r + 1:last + r + 1] * ua
    return ua, ub, rhs, guarded


def _band_system(problem: BvpProblem, grid: Grid, field: Field, coeff, r: int):
    """Interior matrix and right-hand side of that band. Call under
    ``field.context()``."""
    _, _, rhs, _ = _band_rhs(problem, grid, field, coeff, r)
    n, width = grid.n, len(coeff)
    rows = [[coeff[i + r - j] if 0 <= i + r - j < width else field.zero for j in range(1, n)]
            for i in range(1, n)]
    if field.name == "float64":
        return np.array(rows), rhs
    return rows, rhs.tolist()


def _central_band(problem: BvpProblem, n: int, field: Field):
    """Grid and weights (s, -2s, s) with s = 1/h^2 of the central scheme and
    their reciprocal series (k + 1)/s to n terms, each as the field's array."""
    with field.context():
        grid = _grid(problem, n, field)
        scale = field.one / grid.h**2
        coeff = np.array([scale, -2 * scale, scale], dtype=grid.x.dtype)
        inv = np.arange(1, n + 1, dtype=grid.x.dtype) / scale
    return grid, coeff, inv


def assemble_central(problem: BvpProblem, n: int, field: Field | None = None, **options):
    """Tridiagonal interior system for u'' = f: the band (1, -2, 1)/h^2. Any
    option (the scheme takes none), or a bad alpha or N, raises ValueError."""
    field, _ = _checked(problem, "central", n, field, options)
    grid, coeff, _ = _central_band(problem, n, field)
    with field.context():
        return _band_system(problem, grid, field, coeff, 1)


def unified_coefficient_rows(n: int) -> list[tuple[Fraction, ...]]:
    """Exact full-grid rows: row i holds the (d=2, p=N-1, r=i) coefficients,
    one weight per grid point 0..N."""
    _integer("number of intervals N", n, 2)
    return [beta_coefficients(derive_params(2, 2, n - 1, i, RATIONAL)).beta for i in range(1, n)]


def assemble_unified(problem: BvpProblem, n: int, field: Field | None = None, **options):
    """Full (N-1)x(N-1) interior system whose row i carries the
    maximal-order second-derivative formula shifted to grid point i.

    Coefficients are generated exactly (the shifts are integers) and then
    converted into ``field``; only the solve arithmetic is approximate. Any
    option (the scheme takes none), or a bad alpha or N, raises ValueError.
    """
    field, _ = _checked(problem, "unified", n, field, options)
    exact_rows = unified_coefficient_rows(n)
    with field.context():
        grid = _grid(problem, n, field)
        scale = field.one / grid.h**2
        ua, ub, f = _problem_data(problem, grid, field)
        rows = [[field.of(c) for c in exact_row] for exact_row in exact_rows]
        matrix = [[c * scale for c in row[1:n]] for row in rows]
        first, last = np.array([row[0] for row in rows]), np.array([row[n] for row in rows])
        rhs = f - (first * ua + last * ub) * scale
    if field.name == "float64":
        return np.array(matrix), rhs
    return matrix, rhs.tolist()


def assemble_fractional(problem: BvpProblem, n: int, field: Field | None = None, **options):
    """Interior system for D^alpha u = f, 1 < alpha < 2, from the expanded
    (d, p) generator at shift r, the options p, d and r (default 2, 2, 1).

    Row i applies weight w_k to u at grid index i + r - k, truncated at the
    left boundary (zero extension). The configured case is (p, d, r) =
    (2, 2, 1); anything else is accepted but flagged experimental. Any other
    option, or a bad alpha, N or r, raises ValueError, as in ``solve_bvp``.
    A generator with beta_0 <= 0 has no real fractional power and raises
    ValueError. A divergent generator (edge ratio >= 1) warns and solves
    anyway. ``solve_bvp`` refuses r >= 2, which this still assembles.
    """
    field, options = _checked(problem, "fractional", n, field, options)
    grid, coeff, _ = _fractional_band(problem, n, field, **options)
    with field.context():
        return _band_system(problem, grid, field, coeff, options["r"])


def _fractional_band(problem: BvpProblem, n: int, field: Field, p: int, d: int, r: int):
    """Warn as ``assemble_fractional`` documents; return the grid, the
    weights w_k / h^alpha of the (d, p) generator at shift r and their
    reciprocal series h^alpha P(z)^(-alpha/d) to n terms. The scale
    1/h^alpha is kept with the generator, per text of h."""
    validated = _SCHEME_OPTIONS["fractional"]
    if {"p": p, "d": d, "r": r} != validated:
        _warn(f"configuration (p={p}, d={d}, r={r}) is experimental; the validated setup is "
              f"{tuple(validated.values())}", RuntimeWarning)
    alpha = field.of(problem.alpha)
    cv, diag, _, scales = generator = _generator(alpha, str(alpha), d, p, r, field)
    params = cv.params
    if not cv.beta[0] > 0:
        raise ValueError(f"generator (p, d, r) = ({p}, {d}, {r}) has beta_0 = {cv.beta[0]} at "
                         f"alpha = {params.alpha}; P(z)^(alpha/d) needs beta_0 > 0")
    if not diag.converges_on_unit_disk:
        _warn(f"generator expansion diverges on the unit disk (edge ratio {diag.edge_ratio}); "
              "solving anyway", RuntimeWarning)
    with field.context():
        weights = _series(generator, params.gamma, n + r)
        grid = _grid(problem, n, field)
        if str(grid.h) not in scales:
            scales[str(grid.h)] = field.one / field.power(grid.h, params.alpha)
        scale = scales[str(grid.h)]
        inv = _series(generator, -params.gamma, n) / scale
        return grid, weights * scale, inv


@lru_cache(maxsize=16, typed=True)
def _generator(alpha: Scalar, alpha_text: str, d: int, p: int, r: int, field: Field):
    """The coefficients (``cv.params`` from ``derive_params``, whose checks run
    on a miss), the convergence verdict (None unless beta_0 > 0), a dict
    gamma -> P(z)^gamma (unscaled, read-only, grown by ``_series``) and a
    dict from the text of each step h to 1/h^alpha (``_fractional_band``) of
    the request's generator. ``alpha_text`` keeps apart equal decimal alphas of
    different exponents, whose series differ in their reprs, and ``typed`` a
    d or p of True or 1.0 from 1, so that no hit skips a refusal."""
    cv = beta_coefficients(derive_params(alpha, d, p, r, field))
    return cv, convergence_diagnostic(cv) if cv.beta[0] > 0 else None, {}, {}


def _series(generator, gamma, length: int) -> np.ndarray:
    """The first ``length`` terms of the generator's P(z)^gamma, expanded past
    the kept ones if needed, in every field from the kept head on, so a
    study computes each term once. Call under the field's context."""
    cv, _, kept, _ = generator
    # a race between two growths only repeats work: every expansion has the same terms
    head = kept.get(gamma)
    if head is None or len(head) < length:
        head = kept[gamma] = np.array(_expand(cv.beta, gamma, length, cv.params.field,
                                              None if head is None else head.tolist()))
        head.flags.writeable = False
    return head[:length]


def _solve_exact(matrix, rhs):
    # partial pivoting; a zero factor leaves its row as is (x - 0 y may move a Decimal's exponent)
    m = [list(row) for row in matrix]
    v = list(rhs)
    size = len(v)
    for col in range(size):
        pivot_row = max(range(col, size), key=lambda rr: abs(m[rr][col]))
        if m[pivot_row][col] == 0:
            raise SingularMatrixError(f"zero pivot at column {col}")
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            v[col], v[pivot_row] = v[pivot_row], v[col]
        pivot = m[col][col]
        for row in range(col + 1, size):
            factor = m[row][col] / pivot
            if factor == 0:
                continue
            for j in range(col, size):
                m[row][j] = m[row][j] - factor * m[col][j]
            v[row] = v[row] - factor * v[col]
    out = [None] * size
    for row in range(size - 1, -1, -1):
        acc = v[row]
        for j in range(row + 1, size):
            acc = acc - m[row][j] * out[j]
        out[row] = acc / m[row][row]
    return out


def _ill_conditioned(cause: str, cond) -> SingularMatrixError:
    """Refusal naming the condition estimate and the digits that would carry it."""
    digits = max(50, 17 + Decimal(cond).adjusted()) if cond < math.inf else 50
    return SingularMatrixError(
        f"{cause} (condition estimate {cond:.1e}); if the exact system is regular, "
        f"solve it in a decimal field, e.g. bigdecimal({digits}) or --mode big --digits {digits}")


def _solve_float(matrix, b):
    import scipy.linalg  # diffgen's one use of scipy, loaded by the first call
    scale = float(max(matrix.max(), -matrix.min())) or 1.0  # no N x N temporary
    if not math.isfinite(scale):
        raise SingularMatrixError("matrix must not contain infs or NaNs")
    if not np.isfinite(b).all():
        raise ValueError("right-hand side must not contain infs or NaNs")
    lu, piv = scipy.linalg.lu_factor(matrix, check_finite=False)
    if float(np.abs(np.diagonal(lu)).min()) <= 1e-14 * scale:
        # a 1-norm condition estimate from the factors, on this failure path only
        rcond, _ = scipy.linalg.lapack.dgecon(lu, np.linalg.norm(matrix, 1))
        raise _ill_conditioned("pivot below 1e-14 of the matrix scale",
                               1 / rcond if rcond > 0 else math.inf)
    return scipy.linalg.lu_solve((lu, piv), b, check_finite=False)


def solve_dense(matrix, rhs, field: Field | None = None):
    """Solve a nonempty square system given as a numpy array or as lists of rows.

    Numeric numpy arrays take scipy's LAPACK LU (the only call that loads
    scipy) and refuse a pivot below 1e-14 of the largest entry, naming a
    condition estimate. Lists and object arrays take Gaussian elimination with
    partial pivoting and a zero-pivot check, under ``field.context()`` if given.
    """
    shape = matrix.shape if isinstance(matrix, np.ndarray) else (
        len(matrix), *sorted({len(row) for row in matrix}))
    rhs_shape = getattr(rhs, "shape", (len(rhs),))
    if shape[0] == 0 or shape != (shape[0],) * 2 or rhs_shape != shape[:1]:
        raise ValueError(f"need a nonempty square matrix and a right-hand side of "
                         f"matching length, got shapes {shape} and {rhs_shape}")
    if isinstance(matrix, np.ndarray) and matrix.dtype != object:
        return _solve_float(matrix, np.asarray(rhs, dtype=float))
    with _NO_CONTEXT if field is None else field.context():
        return _solve_exact(matrix, rhs)


def _on_integers(values, field: Field) -> tuple[list[int], int]:
    """Exact integers n_i and one e with values[i] = n_i / e (Fractions over
    their least common denominator) or n_i 10^e (Decimals on the least
    exponent of the nonzero ones, or 0 if that is positive: the exponent of
    their exact sum with the field's zero, so no value's digits are read)."""
    if field.digits is None:
        return _over_common_denominator(values)
    exponent = reduce(_EXACT.add, filter(None, values), field.zero).as_tuple().exponent
    shift = Decimal(-exponent)
    return [int(_EXACT.scaleb(v, shift)) for v in values], exponent


def _pack(ints: list[int], width: int) -> int:
    """sum_i ints[i] 2^(8 width i), for |ints[i]| < 2^(8 width - 1): each
    slot in two's complement, less the 2^(8 width) that a negative slot
    borrows from the next."""
    pad = bytes(width)
    body = b"".join(i.to_bytes(width, "little", signed=True) for i in ints)
    borrow = b"".join(b"\1" + pad[1:] if i < 0 else pad for i in ints)
    return int.from_bytes(body, "little") - (int.from_bytes(borrow, "little") << 8 * width)


def _convolve(a, b, field: Field) -> np.ndarray:
    """The first len(b) terms of the convolution of the rational or decimal
    sequences a and b, each the exact sum rounded once into ``field``.

    Both go exactly onto integers (``_on_integers``) and each into one int
    with signed slots wide enough for every exact sum, so that one
    multiplication gives them all (Kronecker substitution); each slot is
    read from the low end, with the borrow of a negative one."""
    m = len(b)
    (ia, ea), (ib, eb) = _on_integers(a[:m], field), _on_integers(b, field)
    # |sum_j ia_j ib_(k-j)| < 2^(bits - 1), with at most min(len(ia), m) terms
    bits = (max(map(abs, ia)).bit_length() + max(map(abs, ib)).bit_length()
            + min(len(ia), m).bit_length() + 1)
    width = -(-bits // 8)
    product = _pack(ia, width) * _pack(ib, width) & (1 << 8 * width * m) - 1
    data = product.to_bytes(width * m, "little")
    sums, carry, full = [], 0, 1 << 8 * width
    for k in range(0, width * m, width):
        c = int.from_bytes(data[k:k + width], "little") + carry
        carry = 2 * c >= full  # a negative sum, which borrowed from the next slot
        sums.append(c - full if carry else c)
    if field.digits is None:
        return np.fromiter((Fraction(c, ea * eb) for c in sums), dtype=object, count=m)
    round_, scale = field._context.create_decimal, field._context.scaleb
    return np.fromiter((scale(round_(c), ea + eb) for c in sums), dtype=object, count=m)


def _solve_band(problem: BvpProblem, scheme: str, n: int, field: Field, options):
    """Grid and solution values of the central or fractional scheme.

    The system is rows r..m+r-1, columns 0..m-1 of L, the m + 1 = n square
    lower-triangular Toeplitz matrix of coeff, and L^-1 is Toeplitz with the
    reciprocal series inv as symbol. At r = 0, x = inv * b. At r = 1,
    L z = (c, b) with z[m] = 0 gives x = z[:m]; z = y + c inv with
    y = inv * (0, b), so c = -y[m] / inv[m]. Larger r are refused first.
    The product inv * b is ``np.convolve`` in double precision, two running
    sums for the central scheme elsewhere, and ``_convolve`` otherwise.
    """
    r = options.get("r", 1)  # the central band (s, -2s, s) sits at shift 1
    if r > 1:
        raise ValueError(f"shift r = {r}: no fractional scheme with r >= 2 converges for "
                         "1 < alpha < 2 (Meerschaert and Tadjeran 2004); solve with r = 1 "
                         "(or r = 0)")
    band = _central_band if scheme == "central" else _fractional_band
    grid, coeff, inv = band(problem, n, field, **options)
    with field.context():
        limit = field.condition_limit
        norm = math.inf if limit is None else np.abs(coeff).sum()  # for the estimate and the fold
        ua, ub, b, guarded = _band_rhs(problem, grid, field, coeff, r, norm)
        if limit is not None:
            # ||L||_1 ||L^-1||_1, refused when it leaves fewer than two of the
            # field's significant digits
            estimate = norm * np.abs(inv).sum()
            if not estimate <= limit:
                raise _ill_conditioned(f"Toeplitz system too ill-conditioned for {field.name}: "
                                       f"|coeff|_1 |inv|_1 above {limit:.0e}", estimate)
        if r == 1 and inv[-1] == 0:
            raise SingularMatrixError(f"reciprocal series vanishes at term {n - 1}; singular system")
        if guarded and not np.isfinite(b).all():  # finite data whose folding overflowed
            raise ValueError("right-hand side must not contain infs or NaNs")
        b = np.concatenate(([field.zero] * r, b))
        if field.name == "float64":
            y = np.convolve(inv, b)[:len(b)]
        elif scheme == "central":
            y = np.cumsum(np.cumsum(b)) / coeff[0]  # sum_i (k - i + 1) b[i] / s, in O(N)
        else:
            y = _convolve(inv, b, field)
        interior = y if r == 0 else (y - y[-1] / inv[-1] * inv)[:-1]
        return grid, np.concatenate(([ua], interior, [ub]))


def _newton_interpolant(v: list[int]) -> np.ndarray:
    """(m-1)! times the degree-(m-1) interpolant of the m integers ``v`` at
    t = 1 .. m, as monomial coefficients (lowest degree first): Newton's
    forward form sum_k (Delta^k v)(1) C(t-1, k), nested so that each step
    multiplies by one factor t - k, with every coefficient an integer."""
    diffs = []
    while v:
        diffs.append(v[0])
        v = [b - a for a, b in zip(v, v[1:])]
    weight, poly = 1, []  # weight = (m-1)!/k!
    for k in range(len(diffs) - 1, -1, -1):
        poly = [lo - (k + 1) * hi for lo, hi in zip([0, *poly], [*poly, 0])]
        poly[0] += weight * diffs[k]
        weight *= k
    return np.array(poly, dtype=object)


def _lagrange_basis(n: int, block: int) -> Iterator[np.ndarray]:
    """The columns, ``block`` at a time, of the matrix whose column c - 1 is
    (n-2)! l_c, the Lagrange basis polynomial of node c on t = 1 .. n-1, as
    integer monomial coefficients: l_c is omega(t)/(t-c) over omega'(c), with
    omega(t) = prod_i (t - i) (the node polynomial at lam = -1) and
    (n-2)!/omega'(c) = (-1)^(n-1-c) C(n-2, c-1). One synthetic division
    serves every c of a block at once."""
    omega = np.array(_node_polynomial(-1, 1, n - 1)[1], dtype=object)
    for first in range(1, n, block):
        nodes = np.arange(first, min(first + block, n)).astype(object)
        quotient = np.empty((n - 1, len(nodes)), dtype=object)
        quotient[-1] = omega[-1]
        for k in range(n - 2, 0, -1):
            quotient[k - 1] = omega[k] + nodes * quotient[k]
        yield quotient * np.array([(-1) ** (n - 1 - c) * math.comb(n - 2, c - 1) for c in nodes],
                                  dtype=object)


@lru_cache(maxsize=32)
def _double_integral(deg: int) -> tuple[tuple[int, ...], int]:
    """lcm / ((m+1)(m+2)) for m <= deg, lcm = lcm_m (m+1)(m+2), and deg! lcm:
    t^m integrates twice to t^(m+2)/((m+1)(m+2)), under the one lcm."""
    lcm = math.lcm(*((m + 1) * (m + 2) for m in range(deg + 1)))
    return tuple(lcm // ((m + 1) * (m + 2)) for m in range(deg + 1)), math.factorial(deg) * lcm


def _integrated_values(poly: np.ndarray, points) -> tuple[np.ndarray, int]:
    """For p with (n-2)! p = ``poly`` (integer monomial coefficients along
    the first axis, degree n - 2; further axes are independent columns):
    n W(t) - t W(n) at each of ``points``, and K = (n-2)! lcm_m (m+1)(m+2)
    over m <= n-2, where W'' = K p and W(0) = W'(0) = 0. The values at t of
    u with u'' = p and u(0) = u(n) = 0 are these over n K."""
    deg = len(poly) - 1
    n = deg + 2
    column = (slice(None),) + (None,) * (poly.ndim - 1)  # broadcast along the columns
    weights, scale = _double_integral(deg)
    w = poly * np.array(weights, dtype=object)[column]
    t = np.array([*points, n], dtype=object)[column]
    acc = w[deg]
    for m in range(deg - 1, -1, -1):  # Horner at every point at once
        acc = acc * t + w[m]
    values = acc * t * t
    return n * values[:-1] - t[:-1] * values[-1], scale


@lru_cache(maxsize=None)
def _data_bound(n: int, block: int = _DATA_BLOCK) -> Fraction:
    """||A_N||_inf exactly, A_N the map from v = h^2 f to the interior u of
    the unified scheme (zero boundary values, t = (x - a)/h): the columns
    of A_N are the double integrals of the Lagrange basis. Rows j and n - j
    have equal absolute sums (reflect t to n - t), so rows j <= n/2 suffice.
    The row sums gather ``block`` columns at a time, so no N x N array is held."""
    sums = 0
    for columns in _lagrange_basis(n, block):
        g, scale = _integrated_values(columns, range(1, n // 2 + 1))
        sums = sums + np.abs(g).sum(axis=1)
    return Fraction(max(sums), n * scale)


@lru_cache(maxsize=None)
def _sign_bound(n: int) -> Fraction:
    """|(A_N s)_1| for the alternating signs s_c = (-1)^c: a lower bound on
    ||A_N||_inf from one O(N^2) collocation, which refuses a large N without
    the O(N^3) exact bound. Row 1 attains the norm from N = 8 on, and its
    signs alternate, so the two are equal at even N and within 2 % at odd N."""
    g, scale = _integrated_values(_newton_interpolant([(-1) ** c for c in range(1, n)]), [1])
    return Fraction(abs(g[0]), n * scale)


def _solve_unified(problem: BvpProblem, n: int, field: Field):
    """Grid and solution (the field's array) of the unified scheme by exact collocation.

    Row i of the scheme is the second derivative at x_i of the degree-n
    interpolant of the grid values, so its solution is the degree-n
    polynomial U of t = (x - a)/h with U(0) = ua, U(n) = ub and
    U''(i) = h^2 f_i at t = 1 .. n-1. U is built on integers from the
    field's own ua, ub, h and f_i, taken exactly, and each interior value is
    rounded once. Outside the exact field the solve is refused when
    ``_data_bound(n)`` is above ``field.condition_limit``; its lower bound
    ``_sign_bound(n)`` refuses alone when it is already above. Both are
    kept per n.
    """
    limit = field.condition_limit
    if limit is not None and ((bound := _sign_bound(n)) > limit
                              or (bound := _data_bound(n)) > limit):
        raise _ill_conditioned(f"unified scheme too sensitive to data rounding in "
                               f"{field.name}: data bound ||A_N||_inf above {limit:.0e}",
                               Context().divide(bound.numerator, bound.denominator))
    with field.context():
        grid = _grid(problem, n, field)
        ua, ub, f = _problem_data(problem, grid, field)
    # exact: floats, Decimals and Fractions are ratios of integers
    (an, ad), (bn, bd), (hn, hd), *ratios = (x.as_integer_ratio()
                                              for x in [ua, ub, grid.h, *f.tolist()])
    # ua, ub and v_i = h^2 f_i as integers over one common denominator
    den = math.lcm(ad, bd, hd * hd * math.lcm(*(d for _, d in ratios)))
    ia, ib = an * (den // ad), bn * (den // bd)
    v = [hn * hn * num * (den // (hd * hd * d)) for num, d in ratios]
    g, scale = _integrated_values(_newton_interpolant(v), range(1, n))
    # u_j: the part that vanishes at both ends, plus the line from ua to ub
    values = (field._quotient(gj + scale * (n * ia + j * (ib - ia)), n * scale * den)
              for j, gj in enumerate(g.tolist(), 1))
    return grid, field.vector([ua, *values, ub])


def solve_bvp(
    problem: BvpProblem,
    scheme: str,
    n: int,
    field: Field | None = None,
    **scheme_options,
) -> SolveReport:
    """Solve one grid; scheme is central, unified, or fractional. Only the
    fractional scheme takes options (p, d, r of ``assemble_fractional``).
    A bad scheme, option, alpha, N or r raises ValueError before any work.
    Outside the exact field a series solve and the unified collocation (see
    the module docstring) raise ``SingularMatrixError`` when their bound
    leaves fewer than two of the field's digits: the unified scheme from
    N = 53 in double precision. The unified result is the exact solution of
    the scheme on the field's ua, ub, h and f, correctly rounded."""
    field, options = _checked(problem, scheme, n, field, scheme_options)
    if scheme == "unified":
        grid, solution = _solve_unified(problem, n, field)
    else:
        grid, solution = _solve_band(problem, scheme, n, field, options)
    with field.context():
        max_error = None
        if problem.exact is not None:
            max_error = field.of(abs(solution - _grid_values(problem, "exact", grid, field)).max())
    return SolveReport(
        n_intervals=n,
        h=grid.h,
        solution=tuple(solution.tolist()),
        max_error=max_error,
        approx_order={"central": 2, "unified": n - 1}.get(scheme, options.get("p")),
    )


def _order_between(prev: SolveReport, cur: SolveReport) -> float | None:
    # no order from a missing or zero error, or between two grids of one N
    if not (prev.max_error and cur.max_error) or cur.n_intervals == prev.n_intervals:
        return None
    if isinstance(cur.max_error, Decimal):
        step = Decimal(cur.n_intervals) / prev.n_intervals
        return float((prev.max_error / cur.max_error).ln() / step.ln())
    ratio = float(prev.max_error) / float(cur.max_error)
    return math.log(ratio) / math.log(cur.n_intervals / prev.n_intervals)


def iter_convergence_study(problem: BvpProblem, scheme: str, n_values: Sequence[int],
                           field: Field | None = None, **scheme_options) -> Iterator[SolveReport]:
    """Solve on each grid in n_values and yield its report, with the empirical
    order against the previous grid, as soon as the grid is solved, so a
    caller keeps the grids before one that is refused. Needs problem.exact
    for the error column."""
    if problem.exact is None:
        raise ValueError("a convergence study needs the exact solution")
    previous = None
    for n in n_values:
        report = solve_bvp(problem, scheme, n, field, **scheme_options)
        order = _order_between(previous, report) if previous else None
        previous = replace(report, empirical_order=order)
        yield previous


def _fmt_error(value) -> str:
    if value is None:
        return "--"
    if isinstance(value, Decimal):
        return f"{value:.5e}"
    return f"{float(value):.5e}"


def _fmt_order(value) -> str:
    return "--" if value is None else f"{value:.4f}"


def study_csv(reports: Iterable[SolveReport]) -> str:
    """CSV lines N,h,max_error,order."""
    lines = ["N,h,max_error,order"]
    for rep in reports:
        lines.append(
            f"{rep.n_intervals},{float(rep.h):.8g},"
            f"{_fmt_error(rep.max_error)},{_fmt_order(rep.empirical_order)}"
        )
    return "\n".join(lines)


def study_table(reports: Iterable[SolveReport]) -> str:
    """Aligned text table: N, h, error, measured order, configured order."""
    header = f"{'N':>6} {'h':>12} {'error':>14} {'order':>9} {'p':>5}"
    lines = [header]
    for rep in reports:
        conf = "--" if rep.approx_order is None else str(rep.approx_order)
        lines.append(
            f"{rep.n_intervals:>6} {float(rep.h):>12.6g} "
            f"{_fmt_error(rep.max_error):>14} {_fmt_order(rep.empirical_order):>9} {conf:>5}"
        )
    return "\n".join(lines)
