"""The benchmark's workloads: seeded lists of operations and their checks.

``build(name, seed, dg)`` turns a seed into a fixed list of operations. Every
operation calls diffgen through its public functions only, looking each one
up on the ``diffgen`` package when it runs (so the tracer can wrap it).
The seed chooses values (shifts, orders alpha, sampled data); the number and
shape of the operations is the same for every seed, so a pass costs about
the same whatever the seed. Checks run after the timed passes and use
``reference`` only.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import mpmath

import reference as ref

WORKLOADS = ("formulas", "bvp_f64", "bvp_big")
BIG_DIGITS = ref.BIG_DIGITS


@dataclass(eq=False)
class Op:
    """One request. ``check(output, outputs)`` returns None when the output
    is right, else a message; ``outputs`` maps every op of the pass to its
    output.
    ``known_fault`` names the program fault that makes this op fail today."""

    label: str
    call: Callable[[], object]
    check: Callable[[object, dict], str | None]
    known_fault: str | None = None


class _Ctx:
    """Seeded inputs shared by the op builders of one workload."""

    def __init__(self, dg, name: str, seed: int):
        self.dg = dg
        self.rng = random.Random(f"{name}:{seed}")
        self.fields = {
            "rational": dg.RATIONAL,
            "float64": dg.FLOAT64,
            "bigdecimal": dg.bigdecimal(BIG_DIGITS),
        }

    def shift(self, cls: str, span: int) -> Fraction:
        """A shift in [0, span]: an integer, a half or a third."""
        rng = self.rng
        if cls == "int":
            return Fraction(rng.randint(0, span))
        if cls == "half":
            return Fraction(2 * rng.randint(0, span - 1) + 1, 2)
        return Fraction(3 * rng.randint(0, span - 1) + rng.choice((1, 2)), 3)

    def fractional_alpha(self, d: int) -> Fraction:
        """A non-integer order in (d - 1/2, d + 1/2)."""
        return d + Fraction(self.rng.choice([k for k in range(-11, 12) if k]), 24)

    def polynomial(self, degree: int) -> list[Fraction]:
        return [Fraction(self.rng.randint(-9, 9)) for _ in range(degree + 1)]


def _fail(exc) -> str | None:
    if isinstance(exc, BaseException):
        return f"raised {type(exc).__name__}: {exc}"
    return None


def _within(err, tol, what: str) -> str | None:
    if err <= tol:
        return None
    return f"{what} relative error {float(err):.3e} exceeds {float(tol):.0e}"


def _check_coefficients(field: str, alpha, d: int, p: int, lam, beta, errors) -> str | None:
    """Base coefficients and error coefficients of one (alpha, d, p, lam)."""
    if len(beta) != p + d:
        return f"expected {p + d} coefficients, got {len(beta)}"
    alpha, lam = ref.exact(alpha), ref.exact(lam)
    if field == "rational":
        defects = ref.moment_defects([lam - j for j in range(p + d)], beta, d, p + d)
        if defects:
            return f"moment conditions fail for k = {defects}"
        for m, a in errors.items():
            if a != ref.error_coefficient(alpha, d, lam, beta, m):
                return f"error coefficient a_{m} = {a} disagrees with the moment sum"
        return None
    exact_beta = ref.base_coefficients(lam, d, p)
    msgs = [_within(ref.normwise_error(beta, exact_beta), ref.TOLERANCE[field], "beta")]
    msgs += [_check_error_coefficient(field, alpha, d, lam, exact_beta, m, a)
             for m, a in errors.items()]
    return "; ".join(m for m in msgs if m) or None


def _check_error_coefficient(field: str, alpha, d: int, lam, exact_beta, m: int, value) -> str | None:
    want = ref.error_coefficient(alpha, d, lam, exact_beta, m)
    allowed = ref.sum_error_allowance(field, want, ref.error_scale(alpha, d, lam, exact_beta, m),
                                      len(exact_beta))
    err = abs(ref.exact(value) - want)
    if err <= allowed:
        return None
    return f"a_{m} = {value} is off by {float(err):.3e}, more than the {float(allowed):.1e} allowed"


def _check_exact_stencil(st, order: int, p: int, offsets, values, expected) -> str | None:
    """A rational stencil for the ``order``-th derivative with accuracy p must
    be exact on monomials of degree < order + p, carry the leading error of
    its own degree-(order + p) moment, and return the exact derivative of a
    sampled polynomial of degree < order + p."""
    if list(st.offsets) != offsets:
        return f"offsets {st.offsets} differ from {offsets}"
    defects = ref.moment_defects(offsets, st.weights, order, order + p)
    if defects:
        return f"not exact on monomials of degree {defects}"
    k = order + p
    if st.leading_error != ref.moment(offsets, st.weights, k) / math.factorial(k):
        return f"leading error {st.leading_error} disagrees with the degree-{k} moment"
    for got, want in zip(values, expected):
        if got != want:
            return f"applied stencil gave {got}, exact derivative is {want}"
    return None


def _check_float_stencil(field: str, st, d: int, p: int, offsets, values, sample_sets) -> str | None:
    """A float compact stencil against the exact stencil of its own float
    shift; each application against the exact dot product of its inputs."""
    tol = ref.TOLERANCE[field]
    lam = ref.exact(st.base_params.lam)
    beta = ref.base_coefficients(lam, d, p)
    msg = (_within(ref.normwise_error(st.offsets, offsets), tol, "offsets")
           or _within(ref.normwise_error(st.weights, beta), tol, "weights")
           or _check_error_coefficient(field, Fraction(d), d, lam, beta, p, st.leading_error))
    if msg:
        return msg
    for got, (samples, _, h) in zip(values, sample_sets):
        # a dot product is good to tol relative to the sum of its terms' sizes
        terms = [ref.exact(w) * ref.exact(v) for w, v in zip(st.weights, samples)]
        want = sum(terms) / ref.exact(h) ** d
        size = sum(abs(t) for t in terms) / ref.exact(h) ** d
        msg = _within(abs(ref.exact(got) - want) / (size or 1), tol, "applied stencil")
        if msg:
            return msg
    return None


# --------------------------------------------------------------------------
# formulas


def _coef_op(c: _Ctx, field: str, alpha, d: int, p: int, r, known_fault=None) -> Op:
    dg, fld = c.dg, c.fields[field]
    count = min(2, p)

    def call():
        params = dg.derive_params(alpha, d, p, r, fld)
        cv = dg.beta_coefficients(params)
        errs = dg.error_coefficients(cv, count)
        return params, cv.beta, dict(errs.a)

    def check(out, _):
        if _fail(out):
            return _fail(out)
        params, beta, errors = out
        if field == "rational" and params.lam != Fraction(r) * d / Fraction(alpha):
            return f"lambda {params.lam} != r*d/alpha"
        return _check_coefficients(field, params.alpha, d, p, params.lam, beta, errors)

    return Op(f"coef/{field}/a={alpha}/d={d}/p={p}/r={r}", call, check, known_fault)


def _stencil_op(c: _Ctx, field: str, kind: str, d: int, p: int) -> Op:
    dg, fld, rng = c.dg, c.fields[field], c.rng
    span = p + d - 1
    r = None
    if kind == "left":
        shift = Fraction(0)
    elif kind == "right":
        shift = Fraction(span)
    elif kind == "central":
        shift = Fraction(span, 2)
    elif kind == "shifted":
        shift = r = c.shift("int", span)
    else:
        shift = r = c.shift(rng.choice(("half", "third")), span)
    offsets = [shift - k for k in range(p + d)]
    sample_sets, expected = [], []
    for _ in range(2):
        poly = c.polynomial(p + d - 1)
        x = Fraction(rng.randint(-24, 24), 8)
        h = Fraction(1, rng.choice((2, 4, 8, 10)))
        samples = [ref.poly_eval(poly, x + o * h) for o in offsets]
        sample_sets.append(([fld.of(v) for v in samples], fld.of(x), fld.of(h)))
        expected.append(ref.poly_eval(ref.polynomial_derivative(poly, d), x))

    def call():
        st = dg.compact_stencil(d, p, dg.shift_for_kind(kind, d, p, r), fld)
        return st, [dg.apply_stencil(st, s, x, h) for s, x, h in sample_sets]

    def check(out, _):
        if _fail(out):
            return _fail(out)
        st, values = out
        if field == "rational":
            return _check_exact_stencil(st, d, p, offsets, values, expected)
        return _check_float_stencil(field, st, d, p, offsets, values, sample_sets)

    return Op(f"stencil/{field}/{kind}/d={d}/p={p}/r={shift}", call, check)


def _noncompact_op(c: _Ctx, gamma: int, d: int, p: int) -> Op:
    dg, rng = c.dg, c.rng
    alpha = gamma * d
    width = gamma * (p + d - 1)
    r = c.shift(rng.choice(("int", "half")), width)
    offsets = [r - k for k in range(width + 1)]
    poly = c.polynomial(alpha + p - 1)
    x = Fraction(rng.randint(-24, 24), 8)
    h = Fraction(1, rng.choice((2, 4, 8)))
    samples = [ref.poly_eval(poly, x + o * h) for o in offsets]
    deriv = ref.poly_eval(ref.polynomial_derivative(poly, alpha), x)

    def call():
        st = dg.noncompact_stencil(alpha, d, p, r)
        return st, [dg.apply_stencil(st, samples, x, h)]

    def check(out, _):
        if _fail(out):
            return _fail(out)
        st, values = out
        base = ref.base_coefficients(r * d / alpha, d, p)
        if list(st.weights) != ref.poly_power(base, gamma):
            return "weights differ from the exact convolution power of the base"
        return _check_exact_stencil(st, alpha, p, offsets, values, [deriv])

    return Op(f"noncompact/a={alpha}/d={d}/p={p}/r={r}", call, check)


def _dyadic_alpha(c: _Ctx, lo: int, hi: int) -> Fraction:
    """A non-integer alpha = k/16 in (lo, hi); exact in every field."""
    return Fraction(c.rng.choice([k for k in range(16 * lo + 1, 16 * hi) if k % 16]), 16)


def _grunwald_op(c: _Ctx, field: str, count: int) -> Op:
    dg, fld = c.dg, c.fields[field]
    alpha = _dyadic_alpha(c, 0, 2)
    tol = ref.MP_TOLERANCE if field == "rational" else ref.TOLERANCE[field]

    def call():
        return dg.grunwald_weights(alpha, count, fld)

    def check(out, _):
        return _fail(out) or _within(
            ref.mp_normwise_error(out, ref.grunwald_series(alpha, count)), tol, "weights")

    return Op(f"grunwald/{field}/a={alpha}/K={count}", call, check)


def _miller_op(c: _Ctx, field: str, d: int, p: int, count: int) -> Op:
    """A fractional generator expansion near the classical one: alpha within
    7/16 of d, shift in [0, 1], drawn until the exact base has beta_0 > 0
    (which a real power series needs)."""
    dg, fld, rng = c.dg, c.fields[field], c.rng
    while True:
        alpha = d + Fraction(rng.choice([k for k in range(-7, 8) if k]), 16)
        r = c.shift(rng.choice(("int", "half", "third")), 1)
        if ref.base_coefficients(r * d / alpha, d, p)[0] > 0:
            break
    tol = ref.TOLERANCE[field]

    def call():
        params = dg.derive_params(alpha, d, p, r, fld)
        cv = dg.beta_coefficients(params)
        return params, cv.beta, dg.miller_expand(cv.beta, params.gamma, count, fld).weights

    def check(out, _):
        if _fail(out):
            return _fail(out)
        params, beta, weights = out
        exact_beta = ref.base_coefficients(ref.exact(params.lam), d, p)
        want = ref.power_series(exact_beta, alpha / d, count)
        return (_within(ref.normwise_error(beta, exact_beta), tol, "beta")
                or _within(ref.mp_normwise_error(weights, want), tol, "weights"))

    return Op(f"miller/{field}/a={alpha}/d={d}/p={p}/r={r}/K={count}", call, check)


def _integer_power_op(c: _Ctx, gamma: int, d: int, p: int, count: int) -> Op:
    """An integer power of a base by the Miller recurrence. The shift is
    drawn until beta_0 != 0: miller_expand divides by beta_0 even for integer
    powers, so a zero leading coefficient fails on some seeds only."""
    dg = c.dg
    alpha = gamma * d
    while True:
        r = c.shift(c.rng.choice(("int", "half", "third")), gamma * (p + d - 1))
        if ref.base_coefficients(r * d / alpha, d, p)[0] != 0:
            break

    def call():
        params = dg.derive_params(alpha, d, p, r)
        cv = dg.beta_coefficients(params)
        return dg.miller_expand(cv.beta, params.gamma, count).weights

    def check(out, _):
        if _fail(out):
            return _fail(out)
        want = ref.poly_power(ref.base_coefficients(r * d / alpha, d, p), gamma)
        want = (want + [Fraction(0)] * count)[:count]
        return None if list(out) == want else "differs from the exact convolution power"

    return Op(f"power/a={alpha}/d={d}/p={p}/r={r}/K={count}", call, check)


def _cli_op(c: _Ctx, argv: list[str], check_text) -> Op:
    dg = c.dg

    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = dg.cli.run(argv)
        return code, buf.getvalue()

    def check(out, _):
        if _fail(out):
            return _fail(out)
        code, text = out
        if code != 0:
            return f"exit code {code}"
        return check_text(text)

    return Op("cli/" + " ".join(argv), call, check)


def _cli_ops(c: _Ctx) -> list[Op]:
    rng = c.rng
    ops = []
    for d, p in ((1, 3), (2, 4), (3, 2), (4, 5)):
        alpha = c.fractional_alpha(d) if d % 2 else Fraction(d)
        r = c.shift(rng.choice(("int", "half", "third")), p + d - 1)

        def weights_text(text, alpha=alpha, d=d, p=p, r=r):
            lines = text.splitlines()
            beta = [Fraction(v) for v in lines[0].split()]
            error = Fraction(lines[1].removeprefix("error: "))
            return _check_coefficients("rational", alpha, d, p, r * d / alpha, beta, {p: error})

        ops.append(_cli_op(c, ["weights", "--alpha", str(alpha), "--d", str(d), "--p", str(p),
                               "--r", str(r)], weights_text))
    for kind, d, p in (("central", 2, 4), ("staggered", 1, 3)):
        r = c.shift("half", p + d - 1) if kind == "staggered" else None
        shift = r if r is not None else Fraction(p + d - 1, 2)

        def stencil_text(text, d=d, p=p, shift=shift):
            rec = json.loads(text)
            weights = [Fraction(v) for v in rec["weights"]]
            offsets = [Fraction(v) for v in rec["offsets"]]
            if offsets != [shift - k for k in range(p + d)]:
                return f"offsets {rec['offsets']} are wrong"
            defects = ref.moment_defects(offsets, weights, d, p + d)
            k = p + d
            if defects:
                return f"not exact on monomials of degree {defects}"
            if Fraction(rec["leading_error"]) != ref.moment(offsets, weights, k) / math.factorial(k):
                return "leading error disagrees with the moments"
            return None

        argv = ["stencil", "--kind", kind, "--d", str(d), "--p", str(p), "--format", "json"]
        if r is not None:
            argv += ["--r", str(r)]
        ops.append(_cli_op(c, argv, stencil_text))
    alpha = _dyadic_alpha(c, 0, 2)

    def grunwald_text(text, alpha=alpha):
        values = [Fraction(v) for v in text.split()]
        return _within(ref.mp_normwise_error(values, ref.grunwald_series(alpha, 16)),
                       ref.MP_TOLERANCE, "weights")

    ops.append(_cli_op(c, ["expand", "--alpha", str(alpha), "--K", "16"], grunwald_text))
    ops.append(_cli_expand_op(c, _dyadic_alpha(c, 1, 2)))
    return ops


def _cli_expand_op(c: _Ctx, alpha: Fraction) -> Op:
    """The f64 weight series of the (d=2, p=2, r=1) generator at order alpha."""

    def expand_text(text):
        values = [float(v) for v in text.split()]
        want = ref.power_series(ref.base_coefficients(2 / alpha, 2, 2), alpha / 2, 24)
        return _within(ref.mp_normwise_error(values, want), ref.TOLERANCE["float64"], "weights")

    return _cli_op(c, ["expand", "--alpha", str(alpha), "--K", "24", "--d", "2", "--p", "2",
                       "--r", "1", "--mode", "f64"], expand_text)


# High-p requests in the float fields lose most of their digits to
# cancellation (in the float path of ``numerators`` and in the moment sum of
# ``error_coefficients``). Their inputs do not depend on the seed, so they
# fail in every run and the failed share stays fixed.
CANCELLATION = "cancellation in float numerators / error moment sum at high p"
KNOWN_FAULTS = (
    ("float64", 2, 2, 20, Fraction(1, 2)),
    ("float64", 2, 2, 40, Fraction(21, 2)),
    ("bigdecimal", 2, 2, 30, Fraction(1, 3)),
    ("bigdecimal", 2, 2, 40, Fraction(21, 2)),
)

# (d, p) of the exact high-order tail: these set most of a pass's time.
RATIONAL_TAIL = ((1, 12), (2, 16), (3, 20), (4, 24), (1, 28), (2, 32), (3, 36), (4, 40))
SHIFT_CLASSES = ("int", "half", "third")


def _formulas(c: _Ctx) -> list[Op]:
    """Two rounds of the request mix below and a few small f64 BVP solves
    (so every layer shows in every traced run), shuffled together."""
    ops = _formula_round(c) + _formula_round(c)
    sine = c.dg.sine_bvp(c.fields["float64"])
    alpha = _power_law_alpha(c)
    ops += _study_ops(c, sine, "central", "float64", [4, 8], _sine_exact, "central")
    ops += _study_ops(c, sine, "unified", "float64", [4, 8], _sine_exact, "unified")
    ops += _study_ops(c, c.dg.power_law_fractional_bvp(alpha, c.fields["float64"]), "fractional",
                      "float64", [16, 32], _power_exact(alpha), f"fractional/a={alpha}")
    c.rng.shuffle(ops)
    return ops


def _formula_round(c: _Ctx) -> list[Op]:
    ops = []
    for i, (d, p) in enumerate((d, p) for p in range(1, 9) for d in range(1, 5)):
        alpha = Fraction(d) if i % 2 else c.fractional_alpha(d)
        r = c.shift(SHIFT_CLASSES[i % 3], p + d - 1)
        ops.append(_coef_op(c, "rational", alpha, d, p, r))
    for i, (d, p) in enumerate(RATIONAL_TAIL):
        alpha = Fraction(d) if i % 2 else c.fractional_alpha(d)
        ops.append(_coef_op(c, "rational", alpha, d, p, c.shift(SHIFT_CLASSES[i % 3], p + d - 1)))
    for field in ("float64", "bigdecimal"):
        for i, p in enumerate(range(1, 9)):
            d = 1 + i % 4
            alpha = Fraction(d) if i % 2 else c.fractional_alpha(d)
            r = c.shift(SHIFT_CLASSES[i % 3], p + d - 1)
            ops.append(_coef_op(c, field, alpha, d, p, r))
    for field, alpha, d, p, r in KNOWN_FAULTS:
        ops.append(_coef_op(c, field, Fraction(alpha), d, p, r, known_fault=CANCELLATION))
    kinds = ("left", "right", "central", "shifted", "staggered")
    for i in range(20):
        ops.append(_stencil_op(c, "rational", kinds[i % 5], 1 + i % 4, 1 + (3 * i) % 8))
    for i in range(5):
        ops.append(_stencil_op(c, "float64", kinds[i], 1 + i % 4, 2 + i))
    for gamma, d, p in ((2, 1, 2), (3, 1, 3), (2, 2, 2), (3, 2, 4), (4, 1, 2), (2, 2, 6)):
        ops.append(_noncompact_op(c, gamma, d, p))
    for field, count in (("rational", 16), ("rational", 32), ("float64", 64), ("float64", 128),
                         ("bigdecimal", 32), ("bigdecimal", 64)):
        ops.append(_grunwald_op(c, field, count))
    for field, d, p, count in (("float64", 1, 2, 64), ("float64", 2, 2, 64), ("float64", 2, 4, 32),
                               ("float64", 1, 3, 128), ("bigdecimal", 2, 2, 32),
                               ("bigdecimal", 1, 3, 48)):
        ops.append(_miller_op(c, field, d, p, count))
    for gamma, d, p in ((2, 1, 3), (3, 2, 2)):
        ops.append(_integer_power_op(c, gamma, d, p, 16))
    ops.extend(_cli_ops(c))
    return ops


# --------------------------------------------------------------------------
# boundary-value workloads


def _power_law_alpha(c: _Ctx) -> Fraction:
    """alpha = k/64 in (4/3, 2): exact in every field."""
    return Fraction(c.rng.randint(86, 127), 64)


def _sine_exact(t):
    """sin x at x = 2t - 1: the grid fraction t in [0, 1] spans [-1, 1]."""
    return mpmath.sin(2 * ref.to_mp(t) - 1)


def _power_exact(alpha: Fraction):
    return lambda t: ref.to_mp(t) ** (3 + ref.to_mp(alpha))


def _study_ops(c: _Ctx, problem, scheme: str, field: str, n_values, exact_at, label: str) -> list[Op]:
    """One op per grid of a convergence study. ``exact_at(i/N)`` is the exact
    solution at grid point i. The check recomputes the max error and the
    empirical order against the previous grid of the study: in [1.8, 2.2] for
    the second-order schemes, at least the configured N-1 for unified."""
    dg, fld = c.dg, c.fields[field]
    slack = mpmath.mpf(2) ** -50 if field == "float64" else mpmath.mpf(10) ** -(BIG_DIGITS - 2)

    def own_error(report, n):
        return ref.max_grid_error(report.solution, lambda i: exact_at(Fraction(i, n)))

    ops = []
    for n in n_values:
        prev = ops[-1] if ops else None

        def call(n=n):
            return dg.solve_bvp(problem, scheme, n, fld)

        def check(out, outputs, n=n, prev=prev):
            if _fail(out):
                return _fail(out)
            if len(out.solution) != n + 1:
                return f"{len(out.solution)} grid values for N = {n}"
            err = own_error(out, n)
            size = max(abs(ref.to_mp(u)) for u in out.solution)
            if abs(ref.to_mp(out.max_error) - err) > err * mpmath.mpf(10) ** -6 + slack * (1 + size):
                return f"reported max error {out.max_error} but it is {mpmath.nstr(err, 8)}"
            if prev is None:
                return None
            before = outputs[prev]
            if _fail(before):
                return "previous grid failed"
            m = len(before.solution) - 1
            order = float(mpmath.log(own_error(before, m) / err) / mpmath.log(mpmath.mpf(n) / m))
            if scheme == "unified":
                if order < n - 1:
                    return f"order {order:.2f} below the configured {n - 1}"
            elif abs(order - 2) > 0.2:
                return f"order {order:.3f} outside [1.8, 2.2]"
            return None

        ops.append(Op(f"{label}/{field}/N={n}", call, check))
    return ops


def _bvp(c: _Ctx, field: str) -> list[Op]:
    """The BVP studies, plus four small formula requests about the fractional
    generator (so every layer shows in every traced run)."""
    dg, fld = c.dg, c.fields[field]
    sine = dg.sine_bvp(fld)
    ops = []
    if field == "float64":
        grids = [2**k for k in range(4, 11)]
        alphas = [Fraction(k, 64) for k in c.rng.sample(range(86, 128), 2)]  # two different
        for alpha in alphas:
            ops += _study_ops(c, dg.power_law_fractional_bvp(alpha, fld), "fractional", field,
                              grids, _power_exact(alpha), f"fractional/a={alpha}")
        ops += _study_ops(c, sine, "central", field, grids, _sine_exact, "central")
        ops += _study_ops(c, sine, "central", field, [4, 8, 16], _sine_exact, "bvp-default/central")
        ops += _study_ops(c, sine, "unified", field, [4, 8, 16], _sine_exact, "bvp-default/unified")
    else:
        alphas = [_power_law_alpha(c)]
        grids = [2**k for k in range(4, 8)]
        ops += _study_ops(c, sine, "unified", field, [4, 8, 16, 32], _sine_exact, "unified")
        ops += _study_ops(c, dg.power_law_fractional_bvp(alphas[0], fld), "fractional", field,
                          grids, _power_exact(alphas[0]), f"fractional/a={alphas[0]}")
        ops += _study_ops(c, sine, "central", field, grids, _sine_exact, "central")
    ops += [
        _coef_op(c, field, alphas[0], 2, 2, Fraction(1)),
        _grunwald_op(c, field, 16),
        _stencil_op(c, "rational", "central", 2, 2),
        _cli_expand_op(c, alphas[0]),
    ]
    return ops


def build(name: str, seed: int, dg) -> list[Op]:
    """The operation list of workload ``name`` for ``seed``."""
    c = _Ctx(dg, name, seed)
    if name == "formulas":
        return _formulas(c)
    if name == "bvp_f64":
        return _bvp(c, "float64")
    if name == "bvp_big":
        return _bvp(c, "bigdecimal")
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
