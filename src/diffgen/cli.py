"""Command-line front end.

Subcommands: weights (generator coefficients + error), stencil (named
classical formulas), expand (weight series), table (reference coefficient
tables), bvp / fbvp (the two boundary-value studies), oracle (cross-check of
the closed form against Cramer's rule). Exit codes: 0 success, 1 computation
error, 2 argument error (an option value out of range or malformed).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import oracle as oracle_mod
from .explicit_form import beta_coefficients, derive_params, error_coefficients
from .scalars import MIN_DIGITS, ExactnessError, field_from_name, parse_scalar
from .series import grunwald_weights, miller_expand
from .solvers import (
    iter_convergence_study,
    power_law_fractional_bvp,
    sine_bvp,
    study_csv,
    study_table,
)
from .stencils import KINDS, compact_stencil, noncompact_stencil, render_stencil, shift_for_kind

TABLE_SAMPLES = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2))


def _int_at_least(low: int, expected: str):
    """An argparse type: a decimal integer of at least ``low``."""
    def parse(text: str) -> int:
        if not text.removeprefix("-").isdecimal() or int(text) < low:
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return int(text)
    return parse


_positive_int = _int_at_least(1, "a positive integer")
_nonnegative_int = _int_at_least(0, "a non-negative integer")
_digits = _int_at_least(MIN_DIGITS, f"a precision of at least {MIN_DIGITS} digits")


def _scalar(text: str) -> Fraction:
    """The exact value of a scalar literal; the library rounds it into the field."""
    try:
        return parse_scalar(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _field(args):
    return field_from_name(args.mode, args.digits)


def _add_mode_flags(sub, modes=("rational", "f64", "big")):
    sub.add_argument("--mode", choices=modes, default=modes[0])
    sub.add_argument("--digits", type=_digits, default=50, help="precision for --mode big")


def cmd_weights(args) -> int:
    field = _field(args)
    params = derive_params(args.alpha, args.d, args.p, args.r, field)
    cv = beta_coefficients(params)
    errs = error_coefficients(cv, args.errors)
    if args.format == "json":
        record = {
            "alpha": field.format(params.alpha),
            "d": params.d,
            "p": params.p,
            "r": field.format(params.r),
            "lambda": field.format(params.lam),
            "beta": [field.format(b) for b in cv.beta],
            "errors": {str(m): field.format(v) for m, v in sorted(errs.a.items())},
        }
        print(json.dumps(record))
        return 0
    print(" ".join(field.format(b) for b in cv.beta))
    print(f"error: {field.format(errs.leading)}")
    for m in sorted(errs.a):
        if m != params.p:
            print(f"error h^{m}: {field.format(errs.a[m])}")
    return 0


def cmd_stencil(args) -> int:
    field = _field(args)
    shift = shift_for_kind(args.kind, args.d, args.p, args.r)
    alpha = args.alpha if args.alpha is not None else args.d
    if alpha == args.d:
        st = compact_stencil(args.d, args.p, shift, field)
    else:
        st = noncompact_stencil(alpha, args.d, args.p, shift, field)
    print(render_stencil(st, args.format))
    return 0


def cmd_expand(args) -> int:
    field = _field(args)
    if args.d is None:
        weights = grunwald_weights(args.alpha, args.K, field)
    else:
        if args.p is None or args.r is None:
            raise ValueError("generator expansion needs --d, --p and --r together")
        params = derive_params(args.alpha, args.d, args.p, args.r, field)
        cv = beta_coefficients(params)
        weights = miller_expand(cv.beta, params.gamma, args.K, field).weights
    print(" ".join(field.format(w) for w in weights))
    return 0


def _table_block(d: int, p_max: int) -> list[str]:
    lines = []
    for p in range(1, p_max + 1):
        for lam in TABLE_SAMPLES:
            params = derive_params(d, d, p, lam)
            beta = beta_coefficients(params).beta
            text = " ".join(str(b) for b in beta)
            lines.append(f"p={p} lambda={lam}: {text}")
    return lines


def cmd_table(args) -> int:
    which = args.which
    if which == 1:
        print("# order-p base polynomials at shift 0 (coefficients of z^0..z^p)")
        for p in range(1, 7):
            params = derive_params(1, 1, p, 0)
            beta = beta_coefficients(params).beta
            print(f"p={p}: " + " ".join(str(b) for b in beta))
        return 0
    if which in (2, 3, 4):
        d = which - 1
        print(f"# base coefficients for d={d}, sampled over lambda")
        for line in _table_block(d, 5):
            print(line)
        return 0
    rows = (
        ("left", compact_stencil(1, 3, shift_for_kind("left", 1, 3))),
        ("central", compact_stencil(3, 4, shift_for_kind("central", 3, 4))),
        ("shifted", compact_stencil(2, 4, shift_for_kind("shifted", 2, 4, 1))),
        ("right", compact_stencil(3, 4, shift_for_kind("right", 3, 4))),
        ("staggered", compact_stencil(2, 4, shift_for_kind("staggered", 2, 4, Fraction(3, 2)))),
    )
    print("# named compact stencil rows")
    for label, st in rows:
        print(f"{label:>9}: {render_stencil(st)}")
    return 0


def _n_list(args, start: int):
    if args.N is not None:
        return [args.N]
    n_values = []
    n = start
    while n <= args.Nmax:
        n_values.append(n)
        n *= 2
    if not n_values:
        raise ValueError(f"--Nmax must be at least {start}")
    return n_values


def _print_study(reports, fmt: str) -> None:
    """Print a study's rows, and when a grid is refused those solved before it."""
    solved = []
    try:
        for report in reports:
            solved.append(report)
    finally:
        if solved:
            print(study_csv(solved) if fmt == "csv" else study_table(solved))


def cmd_bvp(args) -> int:
    field = _field(args)
    problem = sine_bvp(field)
    n_values = _n_list(args, 4)
    schemes = ("central", "unified") if args.scheme == "both" else (args.scheme,)
    if args.format == "csv" and len(schemes) > 1:
        raise ValueError("csv output needs a single --scheme")
    for scheme in schemes:
        if args.format != "csv":
            print(f"scheme: {scheme}")
        _print_study(iter_convergence_study(problem, scheme, n_values, field), args.format)
    return 0


def cmd_fbvp(args) -> int:
    field = _field(args)
    problem = power_law_fractional_bvp(args.alpha, field)
    n_values = _n_list(args, 8)
    # a flag not given takes the scheme's own default generator
    options = {name: value for name in ("p", "d", "r") if (value := getattr(args, name)) is not None}
    _print_study(iter_convergence_study(problem, "fractional", n_values, field, **options),
                 args.format)
    return 0


def cmd_oracle(args) -> int:
    lambdas = (
        Fraction(0),
        Fraction(1, 3),
        Fraction(1, 2),
        Fraction(1),
        Fraction(3, 2),
        Fraction(2),
        Fraction(5, 2),
    )
    checked = 0
    for d in range(1, args.dmax + 1):
        for p in range(1, args.pmax + 1):
            for lam in lambdas:
                params = derive_params(d, d, p, lam)
                fast = beta_coefficients(params).beta
                slow = oracle_mod.vandermonde_solve(params)
                if tuple(fast) != tuple(slow):
                    print(
                        f"mismatch at d={d} p={p} lambda={lam}: {fast} != {slow}",
                        file=sys.stderr,
                    )
                    return 1
                checked += 1
    print(f"ok: closed form matches Cramer on {checked} parameter sets")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diffgen",
        description="Difference-formula weights, stencils, series and BVP studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    w = sub.add_parser("weights", help="generator coefficients and error terms")
    w.add_argument("--alpha", type=_scalar, required=True)
    w.add_argument("--d", type=_positive_int, required=True)
    w.add_argument("--p", type=_positive_int, required=True)
    w.add_argument("--r", type=_scalar, required=True)
    w.add_argument("--errors", type=_positive_int, default=1, help="number of error coefficients")
    w.add_argument("--format", choices=("human", "json"), default="human")
    _add_mode_flags(w)
    w.set_defaults(func=cmd_weights)

    s = sub.add_parser("stencil", help="named classical stencils")
    s.add_argument("--kind", choices=KINDS, required=True)
    s.add_argument("--d", type=_positive_int, required=True)
    s.add_argument("--p", type=_positive_int, required=True)
    s.add_argument("--r", type=_scalar, help="shift for kinds shifted/staggered")
    s.add_argument("--alpha", type=_positive_int, help="derivative order for non-compact forms")
    s.add_argument("--format", choices=("human", "json", "csv"), default="human")
    _add_mode_flags(s)
    s.set_defaults(func=cmd_stencil)

    e = sub.add_parser("expand", help="weight series of a generator")
    e.add_argument("--alpha", type=_scalar, required=True)
    e.add_argument("--K", type=_positive_int, required=True)
    e.add_argument("--d", type=_positive_int)
    e.add_argument("--p", type=_positive_int)
    e.add_argument("--r", type=_scalar)
    _add_mode_flags(e)
    e.set_defaults(func=cmd_expand)

    t = sub.add_parser("table", help="reference coefficient tables")
    t.add_argument("--which", type=int, choices=(1, 2, 3, 4, 5), required=True)
    t.set_defaults(func=cmd_table)

    b = sub.add_parser("bvp", help="second-derivative boundary-value study")
    b.add_argument("--N", type=_positive_int)
    b.add_argument("--Nmax", type=_positive_int, default=16)
    b.add_argument("--scheme", choices=("central", "unified", "both"), default="both")
    b.add_argument("--format", choices=("table", "csv"), default="table")
    _add_mode_flags(b, ("f64", "big"))
    b.set_defaults(func=cmd_bvp)

    f = sub.add_parser("fbvp", help="fractional boundary-value study")
    f.add_argument("--alpha", type=_scalar, required=True)
    f.add_argument("--N", type=_positive_int)
    f.add_argument("--Nmax", type=_positive_int, default=256)
    f.add_argument("--p", type=_positive_int)
    f.add_argument("--d", type=_positive_int)
    f.add_argument("--r", type=_nonnegative_int,
                   help="shift r: 1 (configured) or 0; r >= 2 is refused (none converges)")
    f.add_argument("--format", choices=("table", "csv"), default="csv")
    _add_mode_flags(f, ("f64", "big"))
    f.set_defaults(func=cmd_fbvp)

    o = sub.add_parser("oracle", help="cross-check closed form against Cramer's rule")
    o.add_argument("--dmax", type=_positive_int, default=3)
    o.add_argument("--pmax", type=_positive_int, default=4)
    o.set_defaults(func=cmd_oracle)

    return parser


# one parser per process, built on first use
_parser = functools.cache(build_parser)


def run(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ZeroDivisionError, ArithmeticError, ExactnessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
